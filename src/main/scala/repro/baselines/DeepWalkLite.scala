package repro.baselines

import repro.graph.Graph
import repro.linalg.Csr
import scala.util.Random

/** DeepWalk (Perozzi et al., KDD'14), reduced to its modern formulation:
  * truncated random-walk corpus + skip-gram with negative sampling (SGNS,
  * as in the node2vec/LINE family). Driver-local SGD — the training cost
  * proportional to the number of walks is exactly the scalability
  * limitation of this category that the paper documents; we run it on the
  * small graphs only. Operates on the undirected view (DeepWalk walks are
  * undirected in the reference implementation's preprocessing).
  */
object DeepWalkLite {

  def apply(g: Graph, k: Int, walksPerNode: Int = 10, walkLen: Int = 40,
            window: Int = 5, negative: Int = 5, lr0: Double = 0.025,
            seed: Long = 55): Emb = {
    val sym = g.symmetrized
    val csr = sym.adjacency
    val n = csr.rows
    val rng = new Random(seed)
    val emb = Array.fill(n, k)((rng.nextDouble() - 0.5) / k)
    val ctx = Array.ofDim[Double](n, k)
    val negTable = unigramTable(Array.tabulate(n)(csr.rowLength(_).toDouble))

    val totalWalks = n.toLong * walksPerNode
    var done = 0L
    val nodes = rng.shuffle((0 until n).toVector)
    for (_ <- 1 to walksPerNode; start <- nodes) {
      val lr = math.max(1e-4, lr0 * (1.0 - done.toDouble / totalWalks))
      val walk = randomWalk(csr, start, walkLen, rng)
      var i = 0
      while (i < walk.length) {
        val center = walk(i)
        val w = 1 + rng.nextInt(window)
        var j = math.max(0, i - w)
        while (j <= math.min(walk.length - 1, i + w)) {
          if (j != i) sgnsUpdate(emb(center), ctx(walk(j)), positive = true, lr)
          if (j != i) {
            var t = 0
            while (t < negative) {
              val negV = negTable(rng.nextInt(negTable.length))
              if (negV != walk(j)) sgnsUpdate(emb(center), ctx(negV), positive = false, lr)
              t += 1
            }
          }
          j += 1
        }
        i += 1
      }
      done += 1
    }
    Emb.symmetricOf(emb)
  }

  private def randomWalk(csr: Csr, start: Int, len: Int, rng: Random): Array[Int] = {
    val out = new Array[Int](len)
    var cur = start
    var i = 0
    while (i < len) {
      out(i) = cur
      val d = csr.rowLength(cur)
      if (d == 0) return out.take(i + 1)
      cur = csr.colIdx(csr.offsets(cur) + rng.nextInt(d))
      i += 1
    }
    out
  }

  /** Unigram^0.75 negative-sampling table (word2vec convention) over
    * per-node counts, each floored at 1: node i fills a share of the
    * 2²⁰ slots proportional to max(counts(i), 1)^0.75.
    */
  private[baselines] def unigramTable(counts: Array[Double]): Array[Int] = {
    val n = counts.length
    val size = 1 << 20
    val w = counts.map(c => math.pow(math.max(c, 1.0), 0.75))
    val total = w.sum
    val table = new Array[Int](size)
    var node = 0
    var cum = w(0) / total
    var i = 0
    while (i < size) {
      table(i) = node
      if (i.toDouble / size > cum && node < n - 1) { node += 1; cum += w(node) / total }
      i += 1
    }
    table
  }

  /** One SGNS gradient step on (center, context). */
  private[baselines] def sgnsUpdate(c: Array[Double], x: Array[Double],
                                    positive: Boolean, lr: Double): Unit = {
    var dot = 0.0
    var i = 0
    while (i < c.length) { dot += c(i) * x(i); i += 1 }
    val label = if (positive) 1.0 else 0.0
    val gScale = lr * (label - sigmoid(dot))
    i = 0
    while (i < c.length) {
      val ci = c(i)
      c(i) += gScale * x(i)
      x(i) += gScale * ci
      i += 1
    }
  }

  private[baselines] def sigmoid(z: Double): Double =
    if (z > 12) 1.0 else if (z < -12) 0.0 else 1.0 / (1.0 + math.exp(-z))
}

/** APP (Zhou et al., AAAI'17) — asymmetric proximity preserving embedding:
  * sample (source, PPR-walk endpoint) pairs (walk stops with probability α
  * each step) and fit forward/backward vectors by SGNS-style logistic
  * updates, `σ(X_u·Y_v)` vs. negatives. This is the PPR-*sampling* learner
  * NRP is contrasted with — it inherits the un-reweighted-PPR deficiency,
  * which our link-prediction benches exhibit.
  */
object APPLite {

  def apply(g: Graph, k: Int, alpha: Double = 0.15, samplesPerNode: Int = 200,
            negative: Int = 5, lr0: Double = 0.05, seed: Long = 66): Emb = {
    val csr = g.adjacency
    val n = csr.rows
    val kPrime = math.max(1, k / 2)
    val rng = new Random(seed)
    val x = Array.fill(n, kPrime)((rng.nextDouble() - 0.5) / kPrime)
    val y = Array.ofDim[Double](n, kPrime)
    // word2vec convention: negatives ∝ (target frequency)^0.75 — here the
    // in-degree, since targets are walk *endpoints*. Uniform negatives
    // would net-penalize popular targets and invert the ranking.
    val negTable = DeepWalkLite.unigramTable(g.inDeg)
    val total = n.toLong * samplesPerNode
    var done = 0L
    for (_ <- 1 to samplesPerNode; u <- 0 until n) {
      val lr = math.max(1e-3, lr0 * (1.0 - done.toDouble / total))
      val v = pprWalk(csr, u, alpha, rng)
      if (v != u) {
        DeepWalkLite.sgnsUpdate(x(u), y(v), positive = true, lr)
        var t = 0
        while (t < negative) {
          val negV = negTable(rng.nextInt(negTable.length))
          if (negV != v && negV != u) DeepWalkLite.sgnsUpdate(x(u), y(negV), positive = false, lr)
          t += 1
        }
      }
      done += 1
    }
    Emb(x, y)
  }

  /** One α-terminated random walk from `u`; returns the endpoint. */
  private def pprWalk(csr: Csr, u: Int, alpha: Double, rng: Random): Int = {
    var cur = u
    while (rng.nextDouble() >= alpha) {
      val d = csr.rowLength(cur)
      if (d == 0) return cur
      cur = csr.colIdx(csr.offsets(cur) + rng.nextInt(d))
    }
    cur
  }
}
