package repro.graph

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
  * Spark is used only to build one: [[Graph.fromEdges]] deduplicates a
  * DataFrame of raw edges and collects the CSR at once. Every operation on
  * a built graph, [[reverse]] and [[symmetrized]] included, is a CSR
  * operation that starts no Spark job.
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

  /** The undirected view `A ∪ Aᵀ`: each row of A merged with the entries
    * of the same row of Aᵀ that A lacks, then sorted. An undirected graph
    * is its own view.
    */
  def symmetrized: Graph = if (!directed) this else {
    val (a, n) = (adjacency, adjacency.rows)
    val extra = a.transpose.filter(!a.contains(_, _))
    val offsets = Array.tabulate(n + 1)(i => a.offsets(i) + extra.offsets(i))
    val colIdx = new Array[Int](offsets(n))
    for (i <- 0 until n) {
      System.arraycopy(a.colIdx, a.offsets(i), colIdx, offsets(i), a.rowLength(i))
      System.arraycopy(extra.colIdx, extra.offsets(i), colIdx, offsets(i) + a.rowLength(i), extra.rowLength(i))
      java.util.Arrays.sort(colIdx, offsets(i), offsets(i + 1))
    }
    new Graph(new Csr(n, n, offsets, colIdx, Array.fill(offsets(n))(1.0)), directed = false)
  }
}

object Graph {
  /** Build a graph from raw (possibly duplicated / self-looped) edges:
    * drops self-loops, deduplicates, and for undirected graphs adds the
    * reverse orientation before deduplication (paper Section 3.1), all on
    * Spark; then collects the adjacency CSR. Rejects an n beyond the Int
    * range and edges that name a node outside [0, n).
    */
  def fromEdges(spark: SparkSession, raw: DataFrame, n: Long, directed: Boolean): Graph = {
    require(n >= 0 && n <= Int.MaxValue, s"n = $n is outside [0, Int.MaxValue]")
    val base = raw.select(col("src").cast("long"), col("dst").cast("long"))
    val oriented = if (directed) base
      else base.union(base.select(col("dst").as("src"), col("src").as("dst")))
    val clean = oriented.filter(col("src") =!= col("dst")).distinct()
    new Graph(Csr.fromTriples(n.toInt, n.toInt, clean.collect().iterator.map { r =>
      val (u, v) = (r.getLong(0), r.getLong(1))
      require(u >= 0 && u < n && v >= 0 && v < n, s"edge ($u, $v) has an endpoint outside [0, $n)")
      (u.toInt, v.toInt, 1.0)
    }), directed)
  }

  /** Build from an in-memory edge list (tests, the Fig.-1 example graph). */
  def fromLocal(spark: SparkSession, edges: Seq[(Long, Long)], n: Long, directed: Boolean): Graph = {
    import spark.implicits._
    fromEdges(spark, edges.toDF("src", "dst"), n, directed)
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

  /** Spark SQL's `hash(u, v)` over long ids (Murmur3, seed 42), computed on
    * the driver: the key by which the evolving and link-prediction cuts
    * bucket an edge.
    */
  def edgeHash(u: Int, v: Int): Int =
    Murmur3_x86_32.hashLong(v.toLong, Murmur3_x86_32.hashLong(u.toLong, 42))
}
