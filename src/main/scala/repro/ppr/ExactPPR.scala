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
    val identity = Array.tabulate(p.length, p.length)((i, j) => if (i == j) 1.0 else 0.0)
    powerSeries(p, identity, alpha, alpha)((_, coef) => coef > tol * alpha)
  }

  /** Truncated, self-loop-free PPR `Π′ = Σ_{i=1…ℓ₁} α(1−α)^i P^i` (Eq. 3) —
    * the exact target of ApproxPPR / Theorem 1.
    */
  def pprTruncated(g: Graph, alpha: Double, l1: Int): Array[Array[Double]] = {
    val p = transition(adjacency(g))
    powerSeries(p, p, alpha * (1 - alpha), alpha)((i, _) => i < l1)
  }

  /** `Σ_i c_i·W_i` over the terms i = 0, 1, … for which `more(i, c_i)`
    * holds, with `W_0 = start`, `c_0 = coef0`, `W_{i+1} = W_i·P` and
    * `c_{i+1} = (1−α)·c_i`.
    */
  private def powerSeries(p: Array[Array[Double]], start: Array[Array[Double]], coef0: Double,
                          alpha: Double)(more: (Int, Double) => Boolean): Array[Array[Double]] = {
    val n = p.length
    var walk = start
    val pi = Array.ofDim[Double](n, n)
    var coef = coef0
    var i = 0
    while (more(i, coef)) {
      if (i > 0) walk = Dense.matmul(walk, p) // W_i, made only once term i is taken
      var r = 0
      while (r < n) {
        var c = 0
        while (c < n) { pi(r)(c) += coef * walk(r)(c); c += 1 }
        r += 1
      }
      coef *= (1 - alpha)
      i += 1
    }
    pi
  }
}
