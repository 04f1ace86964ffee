package repro.baselines

import repro.graph.Graph
import repro.linalg.Csr
import repro.ppr.ExactPPR
import repro.svd.BKSVD

/** NetMF (Qiu et al., WSDM'18) — DeepWalk as explicit matrix
  * factorization: `M = vol(G)/(b·T) · (Σ_{r=1…T} P^r) · D⁻¹`, truncated
  * log `M′ = log(max(M, 1))`, then SVD of the sparse M′ → `E = U√Σ`.
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
    val svd = BKSVD(Csr.fromDense(mPrime), k, q = 4, seed = seed)
    val x = Array.tabulate(n, k)((i, j) => svd.u(i)(j) * math.sqrt(svd.sigma(j)))
    Emb.symmetricOf(x)
  }

  /** The truncated-log DeepWalk matrix `M′ = log max(1, vol/(bT)·(Σ_{r≤T}P^r)·D⁻¹)`
    * — exposed for direct verification against the closed form.
    */
  def matrix(g: Graph, windowT: Int, negB: Double): Array[Array[Double]] = {
    val sym = g.symmetrized
    val n = sym.n.toInt
    val step = sym.adjacency.scaleRows(sym.invOutDeg) // P = D⁻¹A
    // S = Σ_{r=1..T} P^r: the dense P, then P^{r+1} = P·P^r by CSR products.
    var power = ExactPPR.transition(ExactPPR.adjacency(sym))
    val s = Array.ofDim[Double](n, n)
    for (r <- 1 to windowT) {
      var i = 0
      while (i < n) {
        val si = s(i); val pi = power(i)
        var j = 0
        while (j < n) { si(j) += pi(j); j += 1 }
        i += 1
      }
      if (r < windowT) power = step.mult(power)
    }
    val scale = sym.m.toDouble / (negB * windowT) // vol(G) = m of the undirected view
    val invDeg = sym.invOutDeg
    for (row <- s; j <- 0 until n) { // M′ in place of S: no second n×n matrix
      val v = scale * row(j) * invDeg(j)
      row(j) = if (v > 1.0) math.log(v) else 0.0
    }
    s
  }
}
