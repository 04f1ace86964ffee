package repro.baselines

import repro.graph.Graph
import repro.linalg.{Dense, DenseMat}
import repro.svd.BKSVD

/** AROPE (Zhang et al., KDD'18) — arbitrary-order proximity preserved
  * embedding. Eigen-decompose the adjacency of the *undirected view* of
  * the graph (AROPE requires symmetry; the paper runs it on directed
  * graphs by symmetrizing, which we mirror), reweight the spectrum with a
  * proximity polynomial `f(λ) = Σ_q w_q λ^q`, and emit
  * `X = U·diag(√|f(λ)|)`, `Y = U·diag(sign(f(λ))·√|f(λ)|)` so that
  * `X Yᵀ = U f(Λ) Uᵀ ≈ Σ_q w_q A^q`.
  *
  * Eigenpairs are recovered from our BKSVD: for symmetric A,
  * σ_i = |λ_i| and sign(λ_i) = sign(u_iᵀv_i).
  */
object AROPE {

  /** Default high-order proximity weights (geometric decay, order 3). */
  val defaultWeights: Array[Double] = Array(1.0, 0.1, 0.01)

  def apply(g: Graph, k: Int, weights: Array[Double] = defaultWeights,
            eps: Double = 0.2, seed: Long = 20): Emb = {
    val sym = g.symmetrized
    val svd = BKSVD(sym, k, eps, seed)
    val (u, v) = (svd.u, svd.v)
    val n = g.n.toInt
    // Recover signed eigenpairs from the SVD subspace: A·u_j = σ_j·v_j, so
    // the projected operator B = Uᵀ(A U) = diag(σ)·(VᵀU); eigendecompose
    // the symmetrized B and rotate U by its eigenvectors. This is robust
    // to degenerate σ (where individual u_j are not eigenvectors).
    val vtu = DenseMat(v).multT(u)
    val b = Array.tabulate(k, k)((p, q) =>
      (svd.sigma(p) * vtu(p)(q) + svd.sigma(q) * vtu(q)(p)) / 2.0)
    val eig = Dense.eigSym(b)
    val r = eig.values.length
    val uEig = Dense.matmul(u, eig.vectors) // n×r, eigenvector basis
    val lambda = eig.values
    val f = lambda.map(l => weights.zipWithIndex.map { case (w, q) => w * math.pow(l, q + 1) }.sum)
    val x = Array.tabulate(n, r)((row, j) => uEig(row)(j) * math.sqrt(math.abs(f(j))))
    val y = Array.tabulate(n, r)((row, j) => x(row)(j) * (if (f(j) >= 0) 1.0 else -1.0))
    Emb(x, y)
  }
}

/** RandNE (Zhang et al., ICDM'18) — billion-scale embedding by iterative
  * Gaussian random projection: `U₀ = orth(G)`, `Uᵢ = A·Uᵢ₋₁`, embedding
  * `E = Σ_i a_i·Uᵢ`. Very fast, lower utility — the trade-off the paper
  * reports. Undirected-only by design; directed inputs are symmetrized as
  * in the paper's experimental protocol.
  */
object RandNE {

  /** Default order weights a₀…a₃: decaying polynomial in A, so that
    * `E·Eᵀ ≈ (Σ a_q A^q)²` JL-preserves a damped high-order proximity —
    * the regime RandNE's tuned per-task weights land in for link-shaped
    * tasks.
    */
  val defaultWeights: Array[Double] = Array(0.01, 1.0, 0.1, 0.01)

  def apply(g: Graph, k: Int, weights: Array[Double] = defaultWeights,
            seed: Long = 20): Emb = {
    val sym = g.symmetrized
    val n = g.n.toInt
    var u = BKSVD.whiten(BKSVD.gaussian(n, k, seed))
    // whitening may drop columns on degenerate inputs; re-pad deterministically
    if (u(0).length < k) u = u.zip(BKSVD.gaussian(n, k - u(0).length, seed + 1)).map { case (a, b) => a ++ b }
    var acc = u.map(Dense.scale(_, weights(0)))
    for (i <- 1 until weights.length) {
      u = sym.adjacency.mult(u)
      acc = acc.zip(u).map { case (a, b) => Dense.axpy(a, weights(i), b) }
    }
    Emb.symmetricOf(acc)
  }
}
