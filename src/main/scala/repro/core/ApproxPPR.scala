package repro.core

import repro.graph.Graph
import repro.linalg.Dense
import repro.svd.BKSVD

/** Algorithm 1 — ApproxPPR: implicit factorization of the truncated PPR
  * matrix `Π′ = Σ_{i=1…ℓ₁} α(1−α)^i P^i` into forward/backward embeddings
  * `X Yᵀ ≈ Π′`, without materializing Π.
  *
  * `BKSVD(A) = UΣVᵀ` seeds `X₁ = D⁻¹U√Σ`, `Y = V√Σ` (so `X₁Yᵀ ≈ P`);
  * then `Xᵢ = (1−α)·P·Xᵢ₋₁ + X₁` for ℓ₁−1 steps and a final scaling by
  * `α(1−α)` gives `X = Σ_{i=1…ℓ₁} α(1−α)^i P^{i−1} X₁`. Theorem 1 bounds
  * `|Π[u,v] − (XYᵀ)[u,v]|` for u≠v by
  * `(1+ε)σ_{k′+1}(1−α)(1−(1−α)^{ℓ₁}) + (1−α)^{ℓ₁+1}`.
  */
object ApproxPPR {

  /** Forward (`x`) and backward (`y`) embeddings, n×k′ each. */
  final case class LocalEmb(x: Array[Array[Double]], y: Array[Array[Double]]) {
    /** The embeddings themselves (kept for callers written against `.local`). */
    def local: LocalEmb = this
  }

  def apply(g: Graph, kPrime: Int, alpha: Double = 0.15, l1: Int = 20,
            eps: Double = 0.2, seed: Long = 20): LocalEmb = {
    require(alpha > 0 && alpha < 1, s"alpha = $alpha is outside (0, 1)")
    require(l1 >= 1, s"l1 = $l1 is below 1")
    require(eps > 0 && !eps.isInfinite, s"eps = $eps is not a finite value above 0")
    val svd = BKSVD(g, kPrime, eps, seed)
    val sqrtSigma = svd.sigma.map(math.sqrt)
    val inv = g.invOutDeg
    val x1 = Array.tabulate(svd.u.length, kPrime)((u, j) => svd.u(u)(j) * sqrtSigma(j) * inv(u))
    val y = Array.tabulate(svd.v.length, kPrime)((v, j) => svd.v(v)(j) * sqrtSigma(j))
    val p = g.adjacency.scaleRows(inv)
    var x = x1
    // Xᵢ = (1−α)·P·Xᵢ₋₁ + X₁
    for (_ <- 2 to l1) x = x1.zip(p.mult(x)).map { case (a, b) => Dense.axpy(a, 1 - alpha, b) }
    LocalEmb(x.map(Dense.scale(_, alpha * (1 - alpha))), y)
  }
}
