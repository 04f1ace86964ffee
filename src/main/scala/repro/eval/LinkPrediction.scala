package repro.eval

import org.apache.spark.unsafe.hash.Murmur3_x86_32
import repro.baselines.Emb
import repro.graph.Graph
import scala.collection.mutable

/** The link-prediction protocol of §5.2: remove 30 % of the edges, embed
  * the residual graph, and rank the removed edges against an equal number
  * of randomly sampled non-edges by AUC. On directed graphs pairs are
  * ordered; on undirected graphs an edge is removed with both its
  * orientations (split on canonical (min,max) pairs) and tested once.
  * The split and the sample run on the driver over `Graph.adjacency`.
  */
object LinkPrediction {

  /** `train` is the residual graph G′; `testPos`/`testNeg` are (src,dst)
    * pairs of equal size, held on the driver so that scoring an embedding
    * runs no Spark job.
    */
  final case class Split(train: Graph, testPos: Array[(Int, Int)], testNeg: Array[(Int, Int)])

  /** Remove the edges whose hash bucket falls under `removeFrac`·1000
    * (Spark SQL's `pmod(hash(src, dst, seed), 1000)`), build the train
    * graph from the rest of `g.adjacency`, and draw as many non-edges as
    * removed pairs. Runs no Spark job once `g.adjacency` exists.
    */
  def split(g: Graph, removeFrac: Double = 0.3, seed: Int = 1): Split = {
    val a = g.adjacency
    val cut = (removeFrac * 1000).toInt
    def removed(u: Int, v: Int): Boolean =
      if (g.directed) bucket(u, v, seed) < cut else bucket(math.min(u, v), math.max(u, v), seed) < cut
    val train = Graph.fromCsr(a.filter(!removed(_, _)), g.directed)
    // test each undirected pair once (canonical orientation)
    val pos = a.entries.filter { case (u, v) => (g.directed || u < v) && removed(u, v) }.toArray
    Split(train, pos, sampleNonEdges(g, pos.length, seed))
  }

  /** The bucket in [0, 1000) of edge (src, dst): Spark SQL's
    * `pmod(hash(src, dst, seed), 1000)` on long ids, computed on the driver.
    */
  private def bucket(src: Int, dst: Int, seed: Int): Int =
    Math.floorMod(Murmur3_x86_32.hashInt(seed, Graph.edgeHash(src, dst)), 1000)

  /** A uniform sample of `count` distinct non-edges of `g`, drawn on the
    * driver by seeded rejection sampling: a random pair is kept unless it
    * is a self-pair, an edge or already drawn. Pairs are canonical
    * (min, max) on undirected graphs. The sample depends only on the
    * graph, `count` and `seed`. Throws `IllegalStateException` when the
    * graph has fewer than `count` non-edges.
    */
  def sampleNonEdges(g: Graph, count: Int, seed: Int): Array[(Int, Int)] = {
    val a = g.adjacency
    val n = a.rows
    val ordered = n.toLong * (n - 1) - a.nnz // ordered non-edge pairs
    val available = if (g.directed) ordered else ordered / 2
    if (available < count)
      throw new IllegalStateException(s"sampleNonEdges wanted $count non-edges but the graph has only $available")
    val rng = new java.util.SplittableRandom(seed)
    val drawn = mutable.HashSet.empty[Long]
    val out = Array.newBuilder[(Int, Int)]
    while (drawn.size < count) {
      val (x, y) = (rng.nextInt(n), rng.nextInt(n))
      val (u, v) = if (g.directed || x < y) (x, y) else (y, x)
      if (u != v && !a.contains(u, v) && drawn.add(u.toLong * n + v)) out += ((u, v))
    }
    out.result()
  }

  /** Score every test pair with `x(u)·y(v)` and compute AUC. */
  def auc(emb: Emb, s: Split): Double =
    aucLocal(s.testPos.map { case (u, v) => (emb.score(u, v), 1) } ++
      s.testNeg.map { case (u, v) => (emb.score(u, v), 0) })

  /** Rank-based AUC (Mann–Whitney) with average ranks for ties. */
  def aucLocal(scored: Iterable[(Double, Int)]): Double = {
    val sorted = scored.toArray.sortBy(_._1) // array: O(1) indexing below
    val nP = sorted.count(_._2 == 1).toDouble
    val nN = sorted.length - nP
    require(nP > 0 && nN > 0, "AUC needs both classes")
    var i = 0
    var rankSumPos = 0.0
    while (i < sorted.length) {
      // j starts past i so a NaN score (NaN != NaN) cannot stall the scan
      var j = i + 1
      while (j < sorted.length && sorted(j)._1 == sorted(i)._1) j += 1
      val avgRank = (i + 1 + j) / 2.0 // mean of ranks i+1 … j
      var t = i
      while (t < j) { if (sorted(t)._2 == 1) rankSumPos += avgRank; t += 1 }
      i = j
    }
    (rankSumPos - nP * (nP + 1) / 2.0) / (nP * nN)
  }
}
