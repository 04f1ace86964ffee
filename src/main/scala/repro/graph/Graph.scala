package repro.graph

import java.util.stream.IntStream
import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions._
import org.apache.spark.unsafe.hash.Murmur3_x86_32
import repro.linalg.Csr

/** A directed graph over node ids `0 … n−1` without self-loops or
  * duplicate edges, held on the driver as its adjacency CSR
  * (≈ 12m + 4n bytes); n is the CSR's row count.
  *
  * Undirected graphs are stored, as in the paper (Section 3.1), with both
  * orientations of every edge materialized; `directed` only records the
  * modelling intent (it changes evaluation, e.g. whether (u,v) and (v,u)
  * are distinct link-prediction pairs — not the algebra).
  *
  * Every graph is built by [[Graph.fromPairs]] from raw edge arrays on the
  * driver. Spark is used only to ingest a DataFrame of edges:
  * [[Graph.fromEdges]] collects its rows into those arrays. Every
  * operation on a built graph, [[reverse]] and [[symmetrized]] included,
  * is a CSR operation that starts no Spark job.
  */
final class Graph private (val adjacency: Csr, val directed: Boolean) {

  /** Number of nodes. */
  def n: Long = adjacency.rows

  /** Number of (directed) edges. */
  def m: Long = adjacency.nnz

  /** Out-degree per node id, dense over 0…n−1 (missing nodes → 0). */
  lazy val outDeg: Array[Double] = Array.tabulate(adjacency.rows)(adjacency.rowLength(_).toDouble)

  /** In-degree per node id, dense over 0…n−1 (missing nodes → 0). */
  lazy val inDeg: Array[Double] = {
    val d = new Array[Double](adjacency.cols)
    adjacency.colIdx.foreach(v => d(v) += 1)
    d
  }

  /** 1/d_out(u), with dangling nodes (d_out = 0) mapped to 0 so that the
    * transition matrix row of a dangling node is identically zero (the
    * walk terminates there), matching the exact-PPR oracle.
    */
  lazy val invOutDeg: Array[Double] = outDeg.map(d => if (d > 0) 1.0 / d else 0.0)

  /** The transpose graph (every edge reversed). */
  def reverse: Graph = new Graph(adjacency.transpose, directed)

  /** The undirected view `A ∪ Aᵀ`: the edges of A, built undirected by
    * [[Graph.fromPairs]]. An undirected graph is its own view.
    */
  def symmetrized: Graph = if (!directed) this else {
    val a = adjacency
    val src = new Array[Int](a.nnz)
    for (u <- 0 until a.rows) java.util.Arrays.fill(src, a.offsets(u), a.offsets(u + 1), u)
    Graph.fromPairs(a.rows, src, a.colIdx, a.nnz, directed = false)
  }
}

object Graph {
  /** Build a graph from the raw (possibly duplicated / self-looped) edges
    * `(src(e), dst(e))`, e < `count`: drops self-loops, adds the reverse
    * orientation when undirected (paper Section 3.1), then counting-sorts
    * the edges by source, sorts each row and removes duplicates. Rejects
    * edges that name a node outside [0, n).
    */
  def fromPairs(n: Int, src: Array[Int], dst: Array[Int], count: Int, directed: Boolean): Graph = {
    require(n >= 0, s"n = $n is negative")
    require(count >= 0 && count <= src.length && count <= dst.length,
      s"count = $count is outside [0, ${math.min(src.length, dst.length)}]")
    val start = new Array[Int](n + 1) // row u's raw entries: start(u) until start(u + 1)
    var total = 0L
    var e = 0
    while (e < count) {
      val u = src(e); val v = dst(e)
      require(u >= 0 && u < n && v >= 0 && v < n, s"edge ($u, $v) has an endpoint outside [0, $n)")
      if (u != v) {
        start(u + 1) += 1; total += 1
        if (!directed) { start(v + 1) += 1; total += 1 }
      }
      e += 1
    }
    require(total <= Int.MaxValue, s"$total oriented edges exceed the Int array range")
    for (u <- 0 until n) start(u + 1) += start(u)
    val raw = new Array[Int](start(n))
    val next = start.clone()
    e = 0
    while (e < count) {
      val u = src(e); val v = dst(e)
      if (u != v) {
        raw(next(u)) = v; next(u) += 1
        if (!directed) { raw(next(v)) = u; next(v) += 1 }
      }
      e += 1
    }
    // per row: sort, then move each distinct column to the row's head
    val offsets = new Array[Int](n + 1)
    IntStream.range(0, n).parallel().forEach { u =>
      java.util.Arrays.sort(raw, start(u), start(u + 1))
      var len = 0
      var r = start(u)
      while (r < start(u + 1)) {
        if (len == 0 || raw(r) != raw(start(u) + len - 1)) { raw(start(u) + len) = raw(r); len += 1 }
        r += 1
      }
      offsets(u + 1) = len
    }
    for (u <- 0 until n) offsets(u + 1) += offsets(u)
    val colIdx = new Array[Int](offsets(n))
    for (u <- 0 until n) System.arraycopy(raw, start(u), colIdx, offsets(u), offsets(u + 1) - offsets(u))
    new Graph(new Csr(n, n, offsets, colIdx, Array.fill(offsets(n))(1.0)), directed)
  }

  /** Ingest a DataFrame of raw edges (`src`, `dst` columns of integral
    * type): collects its rows and builds the graph with [[fromPairs]].
    * Rejects an n beyond the Int range and edges that name a node outside
    * [0, n).
    */
  def fromEdges(raw: DataFrame, n: Long, directed: Boolean): Graph = {
    checkNodeCount(n)
    val rows = raw.select(col("src").cast("long"), col("dst").cast("long")).collect()
    val (src, dst) = (new Array[Int](rows.length), new Array[Int](rows.length))
    for (e <- rows.indices) {
      val (u, v) = (rows(e).getLong(0), rows(e).getLong(1))
      require(u >= 0 && u < n && v >= 0 && v < n, s"edge ($u, $v) has an endpoint outside [0, $n)")
      src(e) = u.toInt; dst(e) = v.toInt
    }
    fromPairs(n.toInt, src, dst, rows.length, directed)
  }

  /** Ingest an in-memory edge list through [[fromEdges]] (tests). */
  def fromLocal(spark: SparkSession, edges: Seq[(Long, Long)], n: Long, directed: Boolean): Graph = {
    import spark.implicits._
    fromEdges(edges.toDF("src", "dst"), n, directed)
  }

  /** Build from a square adjacency CSR: n is its row count. Its entries
    * must be the edges of a graph: value 1, no diagonal entry, and both
    * orientations of every edge when undirected.
    */
  def fromCsr(a: Csr, directed: Boolean): Graph = {
    require(a.rows == a.cols, s"adjacency is ${a.rows}×${a.cols}, not square")
    require((0 until a.rows).forall(u => !a.contains(u, u)), "adjacency has a self-loop")
    require(a.values.forall(_ == 1.0), "adjacency has an entry other than 1")
    new Graph(a, directed)
  }

  /** Rejects a node count outside the range of a CSR's Int row index. */
  private[graph] def checkNodeCount(n: Long): Unit =
    require(n >= 0 && n <= Int.MaxValue, s"n = $n is outside [0, Int.MaxValue]")

  /** Spark SQL's `hash(u, v)` over long ids (Murmur3, seed 42), computed on
    * the driver: the key by which the evolving and link-prediction cuts
    * bucket an edge.
    */
  def edgeHash(u: Int, v: Int): Int =
    Murmur3_x86_32.hashLong(v.toLong, Murmur3_x86_32.hashLong(u.toLong, 42))
}
