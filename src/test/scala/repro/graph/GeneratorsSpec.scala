package repro.graph

import org.apache.spark.sql.functions._
import repro.{Oracle, SparkSpec}

/** Tests for the synthetic dataset generators (DESIGN.md §3). */
class GeneratorsSpec extends SparkSpec {

  test("example9 has 9 nodes and 24 directed edges (12 undirected)") {
    val g = Generators.example9(spark)
    assert(g.n == 9)
    assert(g.m == 24)
  }

  test("dcsbm produces a graph of the requested size class") {
    val lg = Generators.dcsbm(spark, n = 500, avgDeg = 6, numLabels = 5, seed = 1)
    assert(lg.graph.n == 500)
    assert(lg.graph.m > 1000 && lg.graph.m <= 4500,
      s"m=${lg.graph.m} should be near the n·avgDeg=3000 target")
    assert(lg.labels.length == 500)
    assert(lg.numLabels == 5)
  }

  test("dcsbm labels are the interleaved community assignment") {
    val lg = Generators.dcsbm(spark, n = 100, avgDeg = 4, numLabels = 4, seed = 2)
    assert(lg.labels.toSeq == (0 until 100).map(_ % 4))
  }

  test("dcsbm has no self-loops or duplicate edges (oracle)") {
    val lg = Generators.dcsbm(spark, n = 300, avgDeg = 5, numLabels = 3, seed = 3)
    import spark.implicits._
    val bad = Seq((
      lg.graph.edges.filter(col("src") === col("dst")).count(),
      lg.graph.edges.count() - lg.graph.edges.distinct().count()
    )).toDF("selfloops", "dups")
    Oracle.assertEquivalent(bad,
      """SELECT (SELECT COUNT(*) FROM edges WHERE src = dst) AS selfloops,
        |       (SELECT COUNT(*) - COUNT(DISTINCT src || '-' || dst) FROM edges) AS dups""".stripMargin,
      "edges" -> lg.graph.edges)
  }

  test("dcsbm exhibits homophily: most edges stay within a community") {
    val lg = Generators.dcsbm(spark, n = 1000, avgDeg = 8, numLabels = 5, mu = 0.7, seed = 4)
    val L = lg.numLabels
    val within = lg.graph.edges
      .filter(pmod(col("src"), lit(L)) === pmod(col("dst"), lit(L))).count()
    val frac = within.toDouble / lg.graph.m
    assert(frac > 0.5, s"within-community fraction $frac should be > 0.5 at mu=0.7")
  }

  test("dcsbm degrees are skewed (max degree far above mean)") {
    val lg = Generators.dcsbm(spark, n = 1000, avgDeg = 8, numLabels = 5, seed = 5)
    val degs = lg.graph.outDeg
    val mean = degs.sum / degs.length
    assert(degs.max > 4 * mean, s"max=${degs.max} mean=$mean — expected a power-law tail")
  }

  test("undirected dcsbm is symmetric") {
    val lg = Generators.dcsbm(spark, n = 200, avgDeg = 4, numLabels = 2, directed = false, seed = 6)
    val missing = lg.graph.edges
      .join(lg.graph.edges.select(col("dst").as("src"), col("src").as("dst")),
        Seq("src", "dst"), "left_anti")
    assert(missing.count() == 0)
  }

  test("erdosRenyi produces roughly uniform degrees") {
    val g = Generators.erdosRenyi(spark, n = 1000, nEdges = 8000, seed = 7)
    val degs = g.outDeg
    val mean = degs.sum / degs.length
    assert(degs.max < 5 * mean, s"ER max degree ${degs.max} should stay near mean $mean")
  }

  test("erdosRenyi node ids stay in range") {
    val g = Generators.erdosRenyi(spark, n = 500, nEdges = 2000, seed = 8)
    assert(g.edges.filter(col("src") < 0 || col("dst") < 0).count() == 0)
    assert(g.edges.filter(col("src") >= 500 || col("dst") >= 500).count() == 0)
  }

  test("evolving split: old and new edges are disjoint and cover the full graph") {
    val ev = Generators.evolving(spark, n = 400, avgDeg = 5, numLabels = 4,
      oldFrac = 0.6, directed = true, seed = 9)
    val old = ev.old.adjacency.entries.toSet
    assert(ev.newEdges.forall(!old.contains(_)))
    assert((old ++ ev.newEdges).size == ev.full.m)
  }

  test("evolving undirected split tests each future pair once") {
    val ev = Generators.evolving(spark, n = 300, avgDeg = 5, numLabels = 3,
      oldFrac = 0.5, directed = false, seed = 10)
    assert(ev.newEdges.forall { case (u, v) => u < v })
  }

  test("the evolving cut selects exactly the rows of Spark's pmod(hash(least, greatest), 1000)") {
    for (directed <- Seq(true, false)) {
      val ev = Generators.evolving(spark, n = 300, avgDeg = 5, numLabels = 3,
        oldFrac = 0.6, directed = directed, seed = 12)
      val keyed = ev.full.edges.withColumn("h",
        pmod(hash(least(col("src"), col("dst")), greatest(col("src"), col("dst"))), lit(1000)))
      val old = keyed.filter(col("h") < 600).drop("h")
      val fresh = keyed.filter(col("h") >= 600 && (lit(directed) || col("src") < col("dst"))).drop("h")
      assertSameCsr(ev.old.adjacency, Graph.fromEdges(spark, old, ev.full.n, directed).adjacency,
        s"directed=$directed old")
      assert(ev.newEdges.sorted.toSeq == pairs(fresh).sorted.toSeq, s"directed=$directed new")
    }
  }

  test("evolving old fraction is near the requested value") {
    val ev = Generators.evolving(spark, n = 600, avgDeg = 6, numLabels = 4,
      oldFrac = 0.6, directed = true, seed = 11)
    val frac = ev.old.m.toDouble / ev.full.m
    assert(frac > 0.5 && frac < 0.7, s"old fraction $frac should be near 0.6")
  }

  test("named dataset substitutes have their declared shapes") {
    val wiki = Generators.wikiLite(spark)
    assert(wiki.graph.n == 3000 && wiki.graph.directed && wiki.numLabels == 8)
    val blog = Generators.blogLite(spark)
    assert(blog.graph.n == 4000 && !blog.graph.directed && blog.numLabels == 8)
  }
}
