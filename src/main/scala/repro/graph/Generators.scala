package repro.graph

import org.apache.spark.sql.SparkSession
import org.apache.spark.sql.functions._

/** Synthetic graph generators — the dataset substitutes for the paper's
  * real-world graphs (see DESIGN.md §3). All generators are deterministic
  * in their seed (Spark `rand(seed)` / hash-based), so tests, the DuckDB
  * oracle and benches see identical graphs.
  */
object Generators {

  /** The 9-node example graph of the paper's Fig. 1, reverse-engineered
    * from its degree vector [3,3,4,3,4,2,2,2,1] (Example 2's initial
    * forward weights), the common-neighbor structure described in
    * Section 1, and a numerical fit against Table 1: the PPR rows of
    * v₂, v₄ and v₉ match the paper's table to ±0.0015 and an exhaustive
    * search over all degree-consistent completions proves no graph fits
    * the v₇ row better (it appears to carry a typo in the paper).
    * Nodes are 0-indexed: paper's v_i ↦ i−1.
    */
  val example9Edges: Seq[(Long, Long)] = Seq(
    (0L, 1L), (1L, 2L), (1L, 4L), (0L, 3L), (2L, 3L), (3L, 4L),
    (0L, 2L), (2L, 4L), (4L, 5L), (5L, 6L), (6L, 7L), (7L, 8L))

  def example9(spark: SparkSession): Graph =
    Graph.fromLocal(spark, example9Edges, n = 9, directed = false)

  /** A labeled graph: the structure plus a ground-truth community label
    * per node (used by the node-classification task).
    */
  final case class LabeledGraph(graph: Graph, labels: Array[Int], numLabels: Int)

  /** Community of node `id` under the interleaved assignment used by
    * [[dcsbm]]: communities are `id % numLabels`, so every community gets
    * the same slice of the power-law degree spectrum.
    */
  def communityOf(id: Long, numLabels: Int): Int = (id % numLabels).toInt

  /** Degree-corrected stochastic block model.
    *
    * Substitutes for the paper's social/web graphs: power-law out-degrees
    * (Pareto-tail zipf over node ranks, exponent `alpha`) combined with
    * planted communities (a fraction `mu` of each node's edges stay inside
    * its community). `avgDeg` controls edge volume before dedup. For
    * undirected graphs both orientations are added by [[Graph.fromEdges]].
    */
  def dcsbm(spark: SparkSession, n: Long, avgDeg: Double, numLabels: Int,
            mu: Double = 0.7, alpha: Double = 2.2, directed: Boolean = true,
            seed: Long = 42): LabeledGraph = {
    // over-draw by 40% to compensate for duplicate-edge loss at the
    // power-law head (duplicates collapse in Graph.fromEdges)
    val nEdges = (n * avgDeg * 1.4).toLong
    val commSize = n / numLabels // id = comm + numLabels * slot, slot < commSize
    val raw = spark.range(nEdges).select(
      zipfNode(n, alpha, seed).as("src"),
      rand(seed + 1).as("u_comm"),
      zipfNode(n, alpha, seed + 2).as("zdst"),
      (floor(rand(seed + 3) * commSize).cast("long")).as("slot"))
    val edges = raw.select(
      col("src"),
      when(col("u_comm") < mu, pmod(col("src"), lit(numLabels)) + lit(numLabels) * col("slot"))
        .otherwise(col("zdst")).cast("long").as("dst"))
      .filter(col("dst") < n)
    val g = Graph.fromEdges(spark, edges, n, directed)
    val labels = Array.tabulate(n.toInt)(i => communityOf(i, numLabels))
    LabeledGraph(g, labels, numLabels)
  }

  /** Erdős–Rényi G(n, m): `nEdges` uniform edges (pre-dedup) — the same
    * generator family the paper uses for its own scalability test (Fig. 10).
    */
  def erdosRenyi(spark: SparkSession, n: Long, nEdges: Long,
                 directed: Boolean = true, seed: Long = 7): Graph = {
    val raw = spark.range(nEdges).select(
      (rand(seed) * n).cast("long").as("src"),
      (rand(seed + 1) * n).cast("long").as("dst"))
    Graph.fromEdges(spark, raw, n, directed)
  }

  /** An evolving graph: a DC-SBM whose deduplicated edges are split by a
    * deterministic hash into `oldFrac` "old" edges (training snapshot) and
    * the remainder "new" edges (future links to predict) — the synthetic
    * analogue of the paper's VK/Digg old/new snapshots (Appendix C).
    * For undirected graphs the split is made on canonical (min,max) pairs
    * so both orientations of an edge land on the same side, and each new
    * pair is listed once, as (min, max).
    */
  final case class EvolvingGraph(old: Graph, newEdges: Array[(Int, Int)], full: Graph)

  def evolving(spark: SparkSession, n: Long, avgDeg: Double, numLabels: Int,
               oldFrac: Double = 0.6, directed: Boolean = true, seed: Long = 11): EvolvingGraph =
    cut(dcsbm(spark, n, avgDeg, numLabels, directed = directed, seed = seed).graph, oldFrac)

  /** Split `full` into old and new edges on the driver: an edge (u, v) is
    * old when its bucket, Spark SQL's
    * `pmod(hash(least(u, v), greatest(u, v)), 1000)`, falls under
    * `oldFrac`·1000. Runs no Spark job.
    */
  def cut(full: Graph, oldFrac: Double): EvolvingGraph = {
    val a = full.adjacency
    val threshold = (oldFrac * 1000).toInt
    def old(u: Int, v: Int): Boolean =
      Math.floorMod(Graph.edgeHash(math.min(u, v), math.max(u, v)), 1000) < threshold
    val fresh = a.entries.filter { case (u, v) => (full.directed || u < v) && !old(u, v) }.toArray
    EvolvingGraph(Graph.fromCsr(a.filter(old), full.directed), fresh, full)
  }

  /** vk-lite: undirected evolving graph (synthetic stand-in for VK). */
  def vkLite(spark: SparkSession): EvolvingGraph =
    evolving(spark, n = 8000, avgDeg = 12, numLabels = 10, directed = false, seed = 106)

  /** digg-lite: directed evolving graph (synthetic stand-in for Digg). */
  def diggLite(spark: SparkSession): EvolvingGraph =
    evolving(spark, n = 8000, avgDeg = 6, numLabels = 10, directed = true, seed = 107)

  /** Power-law node pick: inverse-CDF of a *shifted* Pareto (x_min = 25)
    * over ranks, tail exponent `alpha`, clamped to [0, n). The shift keeps
    * the head mass spread over tens of nodes (an unshifted Pareto puts
    * >50 % of all draws on rank 0, which then collapses under edge dedup).
    */
  private def zipfNode(n: Long, alpha: Double, seed: Long) = {
    val beta = 1.0 / (alpha - 1.0)
    val xmin = 25.0
    least(lit(n - 1), greatest(lit(0L),
      (lit(xmin) * pow(rand(seed) + lit(1e-12), lit(-beta)) - xmin).cast("long")))
  }

  // ---- Named dataset substitutes (DESIGN.md §3) ------------------------

  /** wiki-lite: directed DC-SBM, n=3 000, m=39 173 directed edges, 8 labels
    * (m as measured under `local[4]`; `rand` draws follow the partition count).
    */
  def wikiLite(spark: SparkSession): LabeledGraph =
    dcsbm(spark, n = 3000, avgDeg = 20, numLabels = 8, directed = true, seed = 101)

  /** blog-lite: undirected DC-SBM, n=4 000, m=61 372 directed-pair edges
    * (30 686 undirected), 8 labels (m as measured under `local[4]`).
    */
  def blogLite(spark: SparkSession): LabeledGraph =
    dcsbm(spark, n = 4000, avgDeg = 10, numLabels = 8, directed = false, seed = 102)

  /** youtube-lite: sparse undirected DC-SBM, n=30 000, avg degree ≈ 4. */
  def youtubeLite(spark: SparkSession): LabeledGraph =
    dcsbm(spark, n = 30000, avgDeg = 2, numLabels = 10, directed = false, seed = 103)

  /** tweibo-lite: directed DC-SBM, n=30 000, avg out-degree ≈ 10. */
  def tweiboLite(spark: SparkSession): LabeledGraph =
    dcsbm(spark, n = 30000, avgDeg = 10, numLabels = 10, directed = true, seed = 104)

  /** twitter-lite: the largest graph in the suite (efficiency bench). */
  def twitterLite(spark: SparkSession): LabeledGraph =
    dcsbm(spark, n = 50000, avgDeg = 10, numLabels = 10, directed = true, seed = 105)
}
