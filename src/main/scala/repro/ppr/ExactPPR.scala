package repro.ppr

import repro.graph.Graph
import repro.linalg.Dense

/** Exact (dense, driver-local) personalized PageRank — the numeric oracle
  * for small graphs. Implements Eq. (1), `Π = Σ_{i≥0} α(1−α)^i P^i`, by
  * power iteration until the geometric tail is negligible, plus the
  * truncated self-loop-free variant `Π′` of Eq. (3) that ApproxPPR targets.
  * Dangling nodes have all-zero transition rows (the walk halts), matching
  * [[repro.graph.Graph.invOutDeg]].
  */
object ExactPPR {

  /** The adjacency CSR densified (small graphs only). */
  def adjacency(g: Graph): Array[Array[Double]] = {
    val n = g.n.toInt
    val a = Array.ofDim[Double](n, n)
    g.adjacency.entries.foreach { case (u, v) => a(u)(v) = 1.0 }
    a
  }

  /** Row-normalized transition matrix `P = D⁻¹A` (dangling rows zero). */
  def transition(adj: Array[Array[Double]]): Array[Array[Double]] =
    adj.map { row =>
      val d = row.sum
      if (d > 0) row.map(_ / d) else row.map(_ => 0.0)
    }

  /** Full PPR matrix Π (Eq. 1), truncated once `(1−α)^i < tol`. */
  def ppr(g: Graph, alpha: Double, tol: Double = 1e-12): Array[Array[Double]] = {
    val p = transition(adjacency(g))
    val n = p.length
    var walk = Array.tabulate(n, n)((i, j) => if (i == j) 1.0 else 0.0)
    val pi = Array.ofDim[Double](n, n)
    var coef = alpha
    var i = 0
    while (coef > tol * alpha) {
      var r = 0
      while (r < n) {
        var c = 0
        while (c < n) { pi(r)(c) += coef * walk(r)(c); c += 1 }
        r += 1
      }
      walk = Dense.matmul(walk, p)
      coef *= (1 - alpha)
      i += 1
    }
    pi
  }

  /** Truncated, self-loop-free PPR `Π′ = Σ_{i=1…ℓ₁} α(1−α)^i P^i` (Eq. 3) —
    * the exact target of ApproxPPR / Theorem 1.
    */
  def pprTruncated(g: Graph, alpha: Double, l1: Int): Array[Array[Double]] = {
    val p = transition(adjacency(g))
    val n = p.length
    var walk = p.map(_.clone()) // P^1
    val pi = Array.ofDim[Double](n, n)
    var coef = alpha * (1 - alpha)
    for (_ <- 1 to l1) {
      var r = 0
      while (r < n) {
        var c = 0
        while (c < n) { pi(r)(c) += coef * walk(r)(c); c += 1 }
        r += 1
      }
      walk = Dense.matmul(walk, p)
      coef *= (1 - alpha)
    }
    pi
  }
}
