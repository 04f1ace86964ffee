package repro.baselines

import repro.graph.Graph
import repro.linalg.DenseMat
import repro.ppr.ExactPPR
import repro.svd.BKSVD

/** NetMF (Qiu et al., WSDM'18) — DeepWalk as explicit matrix
  * factorization: `M = vol(G)/(b·T) · (Σ_{r=1…T} P^r) · D⁻¹`, truncated
  * log `M′ = log(max(M, 1))`, then SVD → `E = U√Σ`.
  *
  * Requires a dense n×n matrix — the scalability wall the paper reports
  * (NetMF/NetSMF are excluded on large graphs); we likewise run it on the
  * small graphs only, treating directed inputs as undirected (NetMF is
  * undirected-only).
  */
object NetMF {

  def apply(g: Graph, k: Int, windowT: Int = 5, negB: Double = 1.0,
            seed: Long = 33): Emb = {
    val mPrime = matrix(g, windowT, negB)
    val n = mPrime.length
    val svd = BKSVD(DenseMat(mPrime), k, q = 4, seed = seed)
    val x = Array.tabulate(n, k)((i, j) => svd.u(i)(j) * math.sqrt(svd.sigma(j)))
    Emb.symmetricOf(x)
  }

  /** The truncated-log DeepWalk matrix `M′ = log max(1, vol/(bT)·(Σ_{r≤T}P^r)·D⁻¹)`
    * — exposed for direct verification against the closed form.
    */
  def matrix(g: Graph, windowT: Int, negB: Double): Array[Array[Double]] = {
    val sym = g.symmetrized
    val n = sym.n.toInt
    val adj = ExactPPR.adjacency(sym)
    val p = ExactPPR.transition(adj)
    val vol = adj.map(_.sum).sum
    val invDeg = adj.map { row => val d = row.sum; if (d > 0) 1.0 / d else 0.0 }
    val pm = DenseMat(p)
    // S = Σ_{r=1..T} P^r via repeated dense (parallel) products.
    var power = p
    val s = Array.ofDim[Double](n, n)
    for (r <- 1 to windowT) {
      var i = 0
      while (i < n) {
        val si = s(i); val pi = power(i)
        var j = 0
        while (j < n) { si(j) += pi(j); j += 1 }
        i += 1
      }
      if (r < windowT) power = pm.mult(power)
    }
    val scale = vol / (negB * windowT)
    Array.tabulate(n, n) { (i, j) =>
      val v = scale * s(i)(j) * invDeg(j)
      if (v > 1.0) math.log(v) else 0.0
    }
  }
}
