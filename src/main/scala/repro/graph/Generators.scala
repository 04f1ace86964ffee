package repro.graph

import java.util.stream.IntStream
import org.apache.spark.sql.SparkSession
import scala.annotation.unused

/** Synthetic graph generators — the dataset substitutes for the paper's
  * real-world graphs (see DESIGN.md §3). They run on the driver and start
  * no Spark job: draw k of edge i is [[uniform]]`(seed + k, i)`, a
  * counter-based hash of (stream, index), so a graph is a pure function of
  * its parameters and seed, whatever the core count or thread schedule.
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

  def example9: Graph =
    Graph.fromPairs(9, example9Edges.map(_._1.toInt).toArray, example9Edges.map(_._2.toInt).toArray,
      example9Edges.length, directed = false)

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
    * undirected graphs both orientations are added by [[Graph.fromPairs]].
    */
  def dcsbm(n: Long, avgDeg: Double, numLabels: Int, mu: Double = 0.7, alpha: Double = 2.2,
            directed: Boolean = true, seed: Long = 42): LabeledGraph = {
    val (src, dst, count) = dcsbmPairs(n, avgDeg, numLabels, mu, alpha, seed)
    val labels = Array.tabulate(n.toInt)(i => communityOf(i, numLabels))
    LabeledGraph(Graph.fromPairs(n.toInt, src, dst, count, directed), labels, numLabels)
  }

  /** [[dcsbm]] for nrpbench's call, which still passes a session; `spark` is unused. */
  def dcsbm(@unused spark: SparkSession, n: Long, avgDeg: Double, numLabels: Int,
            directed: Boolean, seed: Long): LabeledGraph =
    dcsbm(n, avgDeg, numLabels, directed = directed, seed = seed)

  /** The raw edges of [[dcsbm]], self-loops and duplicates included: the
    * first `count` entries of (src, dst). Edge i draws its source with
    * [[zipfNode]] from stream `seed`; with probability `mu` (stream
    * `seed + 1`) its target is a uniform slot (stream `seed + 3`) of the
    * source's community, else another [[zipfNode]] draw (stream
    * `seed + 2`). Edges whose target id is not below n are dropped.
    */
  def dcsbmPairs(n: Long, avgDeg: Double, numLabels: Int, mu: Double, alpha: Double,
                 seed: Long): (Array[Int], Array[Int], Int) = {
    Graph.checkNodeCount(n)
    require(numLabels >= 1, s"numLabels = $numLabels is below 1")
    require(mu >= 0 && mu <= 1, s"mu = $mu is outside [0, 1]")
    require(alpha > 1, s"alpha = $alpha is not above 1")
    require(avgDeg >= 0 && !avgDeg.isInfinite, s"avgDeg = $avgDeg is negative or not finite")
    // over-draw by 40% to compensate for duplicate-edge loss at the
    // power-law head (duplicates collapse in Graph.fromPairs)
    val drawn = n * avgDeg * 1.4
    require(drawn <= Int.MaxValue, s"n·avgDeg·1.4 = $drawn edges to draw exceed the Int array range")
    val nEdges = drawn.toInt
    val beta = 1.0 / (alpha - 1.0)
    val commSize = n / numLabels // id = comm + numLabels * slot, slot < commSize
    val (src, dst) = (new Array[Int](nEdges), new Array[Int](nEdges))
    IntStream.range(0, nEdges).parallel().forEach { i =>
      val u = zipfNode(n, beta, uniform(seed, i))
      val v = if (uniform(seed + 1, i) < mu) u % numLabels + numLabels * (uniform(seed + 3, i) * commSize).toLong
        else zipfNode(n, beta, uniform(seed + 2, i))
      src(i) = u.toInt
      dst(i) = if (v < n) v.toInt else -1
    }
    var count = 0
    var i = 0
    while (i < nEdges) {
      if (dst(i) >= 0) { src(count) = src(i); dst(count) = dst(i); count += 1 }
      i += 1
    }
    (src, dst, count)
  }

  /** Erdős–Rényi G(n, m): `nEdges` uniform edges (pre-dedup) — the same
    * generator family the paper uses for its own scalability test (Fig. 10).
    * Edge i's endpoints are draws i of streams `seed` and `seed + 1`.
    */
  def erdosRenyi(n: Long, nEdges: Long, directed: Boolean = true, seed: Long = 7): Graph = {
    Graph.checkNodeCount(n)
    require(nEdges >= 0 && nEdges <= Int.MaxValue, s"nEdges = $nEdges is outside [0, Int.MaxValue]")
    val (src, dst) = (new Array[Int](nEdges.toInt), new Array[Int](nEdges.toInt))
    IntStream.range(0, nEdges.toInt).parallel().forEach { i =>
      src(i) = (uniform(seed, i) * n).toInt
      dst(i) = (uniform(seed + 1, i) * n).toInt
    }
    Graph.fromPairs(n.toInt, src, dst, nEdges.toInt, directed)
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

  def evolving(n: Long, avgDeg: Double, numLabels: Int, oldFrac: Double = 0.6,
               directed: Boolean = true, seed: Long = 11): EvolvingGraph =
    cut(dcsbm(n, avgDeg, numLabels, directed = directed, seed = seed).graph, oldFrac)

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
  def vkLite: EvolvingGraph =
    evolving(n = 8000, avgDeg = 12, numLabels = 10, directed = false, seed = 106)

  /** digg-lite: directed evolving graph (synthetic stand-in for Digg). */
  def diggLite: EvolvingGraph =
    evolving(n = 8000, avgDeg = 6, numLabels = 10, directed = true, seed = 107)

  /** Power-law node pick: inverse-CDF of a *shifted* Pareto (x_min = 25)
    * over ranks, tail exponent 1 + 1/`beta`, at the uniform draw `u`,
    * clamped to [0, n). The shift keeps the head mass spread over tens of
    * nodes (an unshifted Pareto puts >50 % of all draws on rank 0, which
    * then collapses under edge dedup).
    */
  private def zipfNode(n: Long, beta: Double, u: Double): Long = {
    val xmin = 25.0
    math.min(n - 1, math.max(0L, (xmin * StrictMath.pow(u + 1e-12, -beta) - xmin).toLong))
  }

  /** The SplitMix64 finalizer (Steele, Lea & Flood, OOPSLA'14): a
    * bijection of 64-bit words that mixes every input bit into every
    * output bit.
    */
  private def mix64(z0: Long): Long = {
    val z1 = (z0 ^ (z0 >>> 30)) * 0xBF58476D1CE4E5B9L
    val z2 = (z1 ^ (z1 >>> 27)) * 0x94D049BB133111EBL
    z2 ^ (z2 >>> 31)
  }

  /** Output i (counting from 0) of the SplitMix64 generator seeded with
    * `seed`, computed directly from i.
    */
  private[graph] def splitMix64(seed: Long, i: Long): Long = mix64(seed + (i + 1) * 0x9E3779B97F4A7C15L)

  /** Draw i of stream `stream`, uniform on [0, 1) in steps of 2⁻⁵³: the
    * top 53 bits of output i of SplitMix64 seeded with `mix64(stream)`.
    * A counter-based generator in the style of Random123 (Salmon et al.,
    * SC'11): any draw is computed from (stream, i) alone.
    */
  private def uniform(stream: Long, i: Long): Double = (splitMix64(mix64(stream), i) >>> 11) * Ulp53

  private val Ulp53 = 1.0 / (1L << 53)

  // ---- Named dataset substitutes (DESIGN.md §3) ------------------------

  /** wiki-lite: directed DC-SBM, n=3 000, m=39 053 directed edges, 8 labels. */
  def wikiLite: LabeledGraph =
    dcsbm(n = 3000, avgDeg = 20, numLabels = 8, directed = true, seed = 101)

  /** blog-lite: undirected DC-SBM, n=4 000, m=61 424 directed-pair edges
    * (30 712 undirected), 8 labels.
    */
  def blogLite: LabeledGraph =
    dcsbm(n = 4000, avgDeg = 10, numLabels = 8, directed = false, seed = 102)

  /** youtube-lite: sparse undirected DC-SBM, n=30 000, m=118 216 (avg degree ≈ 4). */
  def youtubeLite: LabeledGraph =
    dcsbm(n = 30000, avgDeg = 2, numLabels = 10, directed = false, seed = 103)

  /** tweibo-lite: directed DC-SBM, n=30 000, m=203 355 (avg out-degree ≈ 7). */
  def tweiboLite: LabeledGraph =
    dcsbm(n = 30000, avgDeg = 10, numLabels = 10, directed = true, seed = 104)

  /** twitter-lite: the largest graph in the suite (efficiency bench), n=50 000, m=330 138. */
  def twitterLite: LabeledGraph =
    dcsbm(n = 50000, avgDeg = 10, numLabels = 10, directed = true, seed = 105)
}
