package repro.graph

import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions._
import repro.linalg.Csr

/** A directed graph over node ids `0 … n−1` without self-loops or
  * duplicate edges, held as an edge-list DataFrame (columns `src: Long`,
  * `dst: Long`), as a driver-resident CSR, or both.
  *
  * Undirected graphs are stored, as in the paper (Section 3.1), with both
  * orientations of every edge materialized; `directed` only records the
  * modelling intent (it changes evaluation, e.g. whether (u,v) and (v,u)
  * are distinct link-prediction pairs — not the algebra).
  *
  * Every algorithm runs on [[adjacency]] (≈ 12m + 4n bytes). A graph made
  * by [[Graph.fromEdges]] collects it from the DataFrame once; a graph made
  * by [[Graph.fromCsr]] (a link-prediction train graph) builds its
  * DataFrame only when a query asks for [[edges]].
  */
final class Graph private (val spark: SparkSession, source: Either[DataFrame, Csr],
                           val n: Long, val directed: Boolean) {

  /** The edge list as a (src, dst) DataFrame, for ingest queries and the
    * DuckDB-checked tests.
    */
  lazy val edges: DataFrame = source match {
    case Left(df) => df
    case Right(a) =>
      import spark.implicits._
      a.entries.map { case (u, v) => (u.toLong, v.toLong) }.toSeq.toDF("src", "dst")
  }

  /** Adjacency matrix `A` (`A[u][v] = 1` for each edge u→v). A graph made
    * from edges collects it once, rejecting an n beyond the Int range and
    * edges that name a node outside [0, n).
    */
  lazy val adjacency: Csr = source match {
    case Right(a) => a
    case Left(df) =>
      require(n >= 0 && n <= Int.MaxValue, s"n = $n is outside [0, Int.MaxValue]")
      Csr.fromTriples(n.toInt, n.toInt, df.collect().iterator.map { r =>
        val (u, v) = (r.getLong(0), r.getLong(1))
        require(u >= 0 && u < n && v >= 0 && v < n, s"edge ($u, $v) has an endpoint outside [0, $n)")
        (u.toInt, v.toInt, 1.0)
      })
  }

  /** Number of (directed) edges. */
  lazy val m: Long = adjacency.nnz

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

  /** Degree table as a DataFrame (id, deg) — used by oracle-checked tests. */
  def degreeDf(endpoint: String): DataFrame =
    edges.groupBy(col(endpoint).as("id")).agg(count(lit(1)).as("deg"))

  /** The transpose graph (every edge reversed). */
  def reverse: Graph =
    new Graph(spark, Left(edges.select(col("dst").as("src"), col("src").as("dst"))), n, directed)
}

object Graph {
  /** Build a graph from raw (possibly duplicated / self-looped) edges:
    * drops self-loops, deduplicates, and for undirected graphs adds the
    * reverse orientation before deduplication (paper Section 3.1).
    */
  def fromEdges(spark: SparkSession, raw: DataFrame, n: Long, directed: Boolean): Graph = {
    val base = raw.select(col("src").cast("long"), col("dst").cast("long"))
    val oriented = if (directed) base
      else base.union(base.select(col("dst").as("src"), col("src").as("dst")))
    val clean = oriented.filter(col("src") =!= col("dst")).distinct()
    new Graph(spark, Left(clean.cache()), n, directed)
  }

  /** Build from an in-memory edge list (tests, the Fig.-1 example graph). */
  def fromLocal(spark: SparkSession, edges: Seq[(Long, Long)], n: Long, directed: Boolean): Graph = {
    import spark.implicits._
    fromEdges(spark, edges.toDF("src", "dst"), n, directed)
  }

  /** Build from a square adjacency CSR without running Spark: n is its row
    * count. Its entries must be the edges of a graph: no diagonal entry,
    * and both orientations of every edge when undirected.
    */
  def fromCsr(spark: SparkSession, a: Csr, directed: Boolean): Graph = {
    require(a.rows == a.cols, s"adjacency is ${a.rows}×${a.cols}, not square")
    require((0 until a.rows).forall(u => !a.contains(u, u)), "adjacency has a self-loop")
    new Graph(spark, Right(a), a.rows, directed)
  }
}
