package repro.graph

import java.util.concurrent.{Callable, ForkJoinPool}
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
      assertSameCsr(ev.old.adjacency, Graph.fromEdges(old, ev.full.n, directed).adjacency,
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

  test("SplitMix64 reproduces the reference outputs for seed 1234567") {
    val want = Seq("6457827717110365317", "3203168211198807973", "9817491932198370423",
      "4593380528125082431", "16408922859458223821")
    val got = (0 until 5).map(i => java.lang.Long.toUnsignedString(Generators.splitMix64(1234567L, i)))
    assert(got == want)
  }

  test("generation runs no Spark job") {
    val gens = Seq[(String, () => Any)](
      "dcsbm" -> (() => Generators.dcsbm(spark, n = 300, avgDeg = 5, numLabels = 3, seed = 13)),
      "undirected-dcsbm" -> (() => Generators.dcsbm(spark, n = 300, avgDeg = 5, numLabels = 3,
        directed = false, seed = 13)),
      "erdosRenyi" -> (() => Generators.erdosRenyi(spark, n = 300, nEdges = 1500, seed = 14)),
      "evolving" -> (() => Generators.evolving(spark, n = 300, avgDeg = 5, numLabels = 3, seed = 15)))
    for ((name, gen) <- gens) {
      val jobs = jobsDuring(name)(gen())
      assert(jobs == 0, s"$jobs Spark jobs ran in $name")
    }
  }

  test("the CSR does not depend on the core count") {
    def build(): Seq[(String, Graph)] = Seq(
      "directed dcsbm" -> Generators.dcsbm(spark, n = 2000, avgDeg = 8, numLabels = 5, seed = 16).graph,
      "undirected dcsbm" -> Generators.dcsbm(spark, n = 2000, avgDeg = 8, numLabels = 5,
        directed = false, seed = 16).graph,
      "erdosRenyi" -> Generators.erdosRenyi(spark, n = 2000, nEdges = 16000, seed = 17),
      "evolving old" -> Generators.evolving(spark, n = 2000, avgDeg = 8, numLabels = 5, seed = 18).old)
    /** `build` run inside a pool of `threads` workers, where parallel streams run too. */
    def inPool(threads: Int): Seq[(String, Graph)] = {
      val pool = new ForkJoinPool(threads)
      try pool.submit(new Callable[Seq[(String, Graph)]] { def call() = build() }).get()
      finally pool.shutdown()
    }
    val common = build()
    for (threads <- Seq(1, 4); ((name, got), (_, want)) <- inPool(threads).zip(common))
      assertSameCsr(got.adjacency, want.adjacency, s"$name, $threads-thread pool")
  }

  test("Spark ingest of the raw draws equals fromPairs and dcsbm, array by array") {
    import spark.implicits._
    for (directed <- Seq(true, false)) {
      val (n, seed) = (400L, 19L)
      val (src, dst, count) = Generators.dcsbmPairs(n, avgDeg = 6, numLabels = 4, mu = 0.7, alpha = 2.2, seed)
      val want = Graph.fromPairs(n.toInt, src, dst, count, directed).adjacency
      assertSameCsr(Generators.dcsbm(spark, n, avgDeg = 6, numLabels = 4, directed = directed, seed = seed)
        .graph.adjacency, want, s"directed=$directed dcsbm")
      val rawDf = src.take(count).zip(dst.take(count)).map { case (u, v) => (u.toLong, v.toLong) }.toSeq
        .toDF("src", "dst")
      for (parts <- Seq(1, 7))
        assertSameCsr(Graph.fromEdges(rawDf.repartition(parts), n, directed).adjacency, want,
          s"directed=$directed, $parts partitions")
    }
  }

  test("generators reject out-of-range parameters naming the value") {
    val bad = Seq[(String, () => Any)](
      "n = -1" -> (() => Generators.dcsbm(spark, n = -1, avgDeg = 4, numLabels = 2)),
      "n = 2147483648" -> (() => Generators.dcsbm(spark, n = Int.MaxValue + 1L, avgDeg = 4, numLabels = 2)),
      "n = -1" -> (() => Generators.erdosRenyi(spark, n = -1, nEdges = 10)),
      "n = 2147483648" -> (() => Generators.erdosRenyi(spark, n = Int.MaxValue + 1L, nEdges = 10)),
      "numLabels = 0" -> (() => Generators.dcsbm(spark, n = 100, avgDeg = 4, numLabels = 0)),
      "mu = -0.1" -> (() => Generators.dcsbm(spark, n = 100, avgDeg = 4, numLabels = 2, mu = -0.1)),
      "mu = 1.5" -> (() => Generators.dcsbm(spark, n = 100, avgDeg = 4, numLabels = 2, mu = 1.5)),
      "mu = NaN" -> (() => Generators.dcsbm(spark, n = 100, avgDeg = 4, numLabels = 2, mu = Double.NaN)),
      "alpha = 1.0" -> (() => Generators.dcsbm(spark, n = 100, avgDeg = 4, numLabels = 2, alpha = 1.0)),
      "alpha = 0.5" -> (() => Generators.dcsbm(spark, n = 100, avgDeg = 4, numLabels = 2, alpha = 0.5)),
      "avgDeg = -1.0" -> (() => Generators.dcsbm(spark, n = 100, avgDeg = -1, numLabels = 2)),
      "avgDeg = Infinity" -> (() => Generators.dcsbm(spark, n = 100, avgDeg = Double.PositiveInfinity, numLabels = 2)),
      "avgDeg = NaN" -> (() => Generators.dcsbm(spark, n = 100, avgDeg = Double.NaN, numLabels = 2)),
      "2.8E9" -> (() => Generators.dcsbm(spark, n = 2000000000L, avgDeg = 1, numLabels = 2)),
      "nEdges = 3000000000" -> (() => Generators.erdosRenyi(spark, n = 100, nEdges = 3000000000L)),
      "nEdges = -1" -> (() => Generators.erdosRenyi(spark, n = 100, nEdges = -1)))
    for ((value, gen) <- bad) {
      val e = intercept[IllegalArgumentException](gen())
      assert(e.getMessage.contains(value), e.getMessage)
    }
  }
}
