package repro.graph

import org.apache.spark.sql.{CachedEntries, DataFrame}
import org.apache.spark.sql.functions._
import repro.{Oracle, SparkSpec}
import repro.eval.LinkPrediction
import repro.ppr.ExactPPR
import scala.util.Random

/** Graph substrate tests; DataFrame-shaped results are cross-checked
  * against DuckDB via the Oracle, and the driver-side CSR operations
  * against the Spark ingest path.
  */
class GraphSpec extends SparkSpec {

  private def exampleGraph: Graph = Generators.example9

  /** Degree table (id, deg) of the `endpoint` column, as a Spark query. */
  private def degreeDf(g: Graph, endpoint: String): DataFrame =
    g.edges.groupBy(col(endpoint).as("id")).agg(count(lit(1)).as("deg"))

  test("fromEdges drops self-loops and duplicates") {
    val g = Graph.fromLocal(spark,
      Seq((0L, 1L), (0L, 1L), (2L, 2L), (1L, 0L)), n = 3, directed = true)
    assert(g.m == 2) // (0,1) deduped, (2,2) dropped, (1,0) kept
  }

  test("undirected graphs materialize both orientations") {
    val g = Graph.fromLocal(spark, Seq((0L, 1L), (1L, 2L)), n = 3, directed = false)
    assert(g.m == 4)
    // symmetry check via DuckDB: edges minus reversed edges is empty
    val missing = g.edges.as("e")
      .join(g.edges.select(col("dst").as("src"), col("src").as("dst")).as("r"),
        Seq("src", "dst"), "left_anti")
    assert(missing.count() == 0)
  }

  test("example9 degrees match the paper's weight vector [3,3,4,3,4,2,2,2,1]") {
    val g = exampleGraph
    assert(g.outDeg.toSeq == Seq(3.0, 3.0, 4.0, 3.0, 4.0, 2.0, 2.0, 2.0, 1.0))
    assert(g.inDeg.toSeq == g.outDeg.toSeq) // undirected
  }

  test("degree DataFrame matches DuckDB aggregation") {
    val g = exampleGraph
    val sparkDeg = degreeDf(g, "src").orderBy("id")
    Oracle.assertEquivalent(sparkDeg,
      "SELECT src AS id, COUNT(*) AS deg FROM edges GROUP BY src ORDER BY id",
      "edges" -> g.edges)
  }

  test("in-degree DataFrame matches DuckDB aggregation") {
    val g = exampleGraph
    Oracle.assertEquivalent(degreeDf(g, "dst"),
      "SELECT dst AS id, COUNT(*) AS deg FROM edges GROUP BY dst",
      "edges" -> g.edges)
  }

  test("reverse swaps in and out degrees") {
    val g = Graph.fromLocal(spark, Seq((0L, 1L), (0L, 2L), (1L, 2L)), n = 3, directed = true)
    val r = g.reverse
    assert(r.outDeg.toSeq == g.inDeg.toSeq)
    assert(r.inDeg.toSeq == g.outDeg.toSeq)
  }

  test("invOutDeg maps dangling nodes to zero") {
    val g = Graph.fromLocal(spark, Seq((0L, 1L)), n = 3, directed = true)
    assert(g.invOutDeg.toSeq == Seq(1.0, 0.0, 0.0))
  }

  private def localAdj(g: Graph): Array[Array[Double]] = {
    val n = g.n.toInt
    val a = Array.ofDim[Double](n, n)
    g.edges.collect().foreach(r => a(r.getLong(0).toInt)(r.getLong(1).toInt) = 1.0)
    a
  }

  test("adjacency mult matches local dense A·X") {
    val g = exampleGraph
    val rng = new Random(1)
    val x = Array.fill(9, 3)(rng.nextGaussian())
    val got = g.adjacency.mult(x)
    val a = localAdj(g)
    for (u <- 0 until 9; j <- 0 until 3) {
      val exp = (0 until 9).map(v => a(u)(v) * x(v)(j)).sum
      assert(math.abs(got(u)(j) - exp) < 1e-9, s"($u,$j)")
    }
  }

  test("adjacency multT matches local dense Aᵀ·X") {
    val g = Graph.fromLocal(spark, Seq((0L, 1L), (0L, 2L), (3L, 1L)), n = 4, directed = true)
    val rng = new Random(2)
    val x = Array.fill(4, 2)(rng.nextGaussian())
    val got = g.adjacency.multT(x)
    val a = localAdj(g)
    for (v <- 0 until 4; j <- 0 until 2) {
      val exp = (0 until 4).map(u => a(u)(v) * x(u)(j)).sum
      assert(math.abs(got(v)(j) - exp) < 1e-9, s"($v,$j)")
    }
  }

  test("P·X rows are degree-normalized sums; dangling rows zero") {
    val g = Graph.fromLocal(spark, Seq((0L, 1L), (0L, 2L), (1L, 2L)), n = 3, directed = true)
    val x = Array(Array(1.0), Array(2.0), Array(4.0))
    val got = g.adjacency.scaleRows(g.invOutDeg).mult(x)
    assert(math.abs(got(0)(0) - 3.0) < 1e-9) // (2+4)/2
    assert(math.abs(got(1)(0) - 4.0) < 1e-9) // 4/1
    assert(got(2)(0) == 0.0)                  // dangling
  }

  test("P·X of all-ones equals 1 for non-dangling rows (row-stochastic)") {
    val g = exampleGraph
    val ones = Array.fill(9, 1)(1.0)
    val got = g.adjacency.scaleRows(g.invOutDeg).mult(ones)
    got.foreach(r => assert(math.abs(r(0) - 1.0) < 1e-9))
  }

  test("adjacency rows are sorted and match the edge list") {
    val g = exampleGraph
    val a = g.adjacency
    for (u <- 0 until 9) {
      val row = (a.offsets(u) until a.offsets(u + 1)).map(a.colIdx)
      assert(row == row.sorted.distinct, s"row $u not strictly increasing: $row")
    }
    val fromCsr = (0 until 9).flatMap(u => (a.offsets(u) until a.offsets(u + 1)).map(e => (u.toLong, a.colIdx(e).toLong)))
    assert(fromCsr.toSet == Generators.example9Edges.flatMap { case (u, v) => Seq((u, v), (v, u)) }.toSet)
  }

  test("ids outside [0, n) are rejected naming the edge") {
    for (bad <- Seq(Seq((0L, 3L)), Seq((-1L, 1L)), Seq((0L, 1L + (1L << 32))))) {
      val e = intercept[IllegalArgumentException](Graph.fromLocal(spark, bad, n = 3, directed = true))
      assert(e.getMessage.contains(s"edge (${bad.head._1}, ${bad.head._2})"), e.getMessage)
    }
  }

  test("n beyond the Int range is rejected naming n") {
    val n = Int.MaxValue.toLong + 1
    val e = intercept[IllegalArgumentException](Graph.fromLocal(spark, Seq((0L, 1L)), n = n, directed = true))
    assert(e.getMessage.contains(n.toString), e.getMessage)
  }

  test("fromPairs rejects ids outside [0, n) and a count beyond its arrays") {
    for ((u, v) <- Seq((0, 3), (-1, 1), (3, 3))) {
      val e = intercept[IllegalArgumentException](Graph.fromPairs(3, Array(u), Array(v), 1, directed = true))
      assert(e.getMessage.contains(s"edge ($u, $v)"), e.getMessage)
    }
    val e = intercept[IllegalArgumentException](Graph.fromPairs(3, Array(0), Array(1), 2, directed = true))
    assert(e.getMessage.contains("count = 2"), e.getMessage)
  }

  test("building a graph caches nothing") {
    val before = CachedEntries(spark)
    Generators.dcsbm(n = 200, avgDeg = 4, numLabels = 2, seed = 113)
    assert(CachedEntries(spark) == before, s"ingest cached ${CachedEntries(spark) - before} new results")
  }

  test("reverse and symmetrized equal the Spark ingest of the swapped and unioned edges, array by array") {
    val graphs = Seq(
      "directed dcsbm" -> Generators.dcsbm(n = 300, avgDeg = 5, numLabels = 3, seed = 114).graph,
      "example9" -> exampleGraph,
      "edgeless n = 5" -> Graph.fromLocal(spark, Seq.empty[(Long, Long)], n = 5, directed = true))
    for ((name, g) <- graphs) {
      val swapped = g.edges.select(col("dst").as("src"), col("src").as("dst"))
      assertSameCsr(g.reverse.adjacency, Graph.fromEdges(swapped, g.n, g.directed).adjacency, s"$name reverse")
      assert(g.reverse.directed == g.directed, name)
      assertSameCsr(g.symmetrized.adjacency, Graph.fromEdges(g.edges, g.n, directed = false).adjacency,
        s"$name symmetrized")
      assert(!g.symmetrized.directed, name)
    }
  }

  test("reverse, symmetrized, the split, the evolving cut and the dense adjacency run no Spark job") {
    val g = Generators.dcsbm(n = 200, avgDeg = 4, numLabels = 2, seed = 115).graph
    val ops = Seq[(String, () => Any)](
      "reverse" -> (() => g.reverse.adjacency),
      "symmetrized" -> (() => g.symmetrized.adjacency),
      "split" -> (() => LinkPrediction.split(g, 0.3, seed = 1)),
      "evolving-cut" -> (() => Generators.cut(g, 0.6)),
      "dense-adjacency" -> (() => ExactPPR.adjacency(g)))
    for ((name, op) <- ops) {
      val jobs = jobsDuring(name)(op())
      assert(jobs == 0, s"$jobs Spark jobs ran in $name")
    }
  }

  test("edge count matches DuckDB") {
    val g = exampleGraph
    import spark.implicits._
    val cnt = Seq(g.m).toDF("m")
    Oracle.assertEquivalent(cnt, "SELECT COUNT(*) AS m FROM edges", "edges" -> g.edges)
  }
}
