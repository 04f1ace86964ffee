package repro.core

import repro.graph.Graph
import scala.util.Random

/** Algorithm 3 — the complete NRP pipeline.
  *
  * 1. k′ = k/2; run [[ApproxPPR]] for initial X, Y with
  *    `XYᵀ ≈ Π′`.
  * 2. Initialize w⃗_v = d_out(v), w⃖_v = 1.
  * 3. ℓ₂ coordinate-descent epochs, each one backward sweep
  *    ([[NodeWeights.updateBwdWeights]]) followed by one forward sweep
  *    ([[NodeWeights.updateFwdWeights]]).
  * 4. Final embeddings X_v ← w⃗_v·X_v, Y_v ← w⃖_v·Y_v, so that
  *    `X_u·Y_v ≈ w⃗_u·π(u,v)·w⃖_v` (Eq. 4).
  *
  * Overall O(k(m+kn)log n) time / O(m+nk) space, as analysed in §4.4.
  */
object NRP {

  /** Paper defaults (§5.1): ℓ₁=20, ℓ₂=10, α=0.15, ε=0.2, λ=10. */
  final case class Params(k: Int = 128, alpha: Double = 0.15, l1: Int = 20,
                          l2: Int = 10, eps: Double = 0.2, lambda: Double = 10.0,
                          seed: Long = 20)

  /** Final forward/backward embeddings plus the learned weights (exposed
    * for the reweighting-diagnostics tests).
    */
  final case class Result(x: Array[Array[Double]], y: Array[Array[Double]],
                          weights: NodeWeights.Weights)

  def apply(g: Graph, params: Params = Params()): Result = {
    val kPrime = math.max(1, params.k / 2)
    val emb = ApproxPPR(g, kPrime, params.alpha, params.l1, params.eps, params.seed)
    reweight(g, emb.x, emb.y, params)
  }

  /** The reweighting stage alone, given ApproxPPR's output (ℓ₂ = 0 gives
    * ApproxPPR scaled by the initial weights).
    */
  def reweight(g: Graph, x0: Array[Array[Double]], y0: Array[Array[Double]],
               params: Params): Result = {
    val n = g.n.toInt
    val x = x0.map(_.clone())
    val y = y0.map(_.clone())
    val w = NodeWeights.init(g.outDeg)
    val rng = new Random(params.seed)
    for (_ <- 1 to params.l2) {
      NodeWeights.updateBwdWeights(x, y, g.outDeg, g.inDeg, w, params.lambda, rng)
      NodeWeights.updateFwdWeights(x, y, g.outDeg, g.inDeg, w, params.lambda, rng)
    }
    var v = 0
    while (v < n) {
      var r = 0
      while (r < x(v).length) { x(v)(r) *= w.wf(v); y(v)(r) *= w.wb(v); r += 1 }
      v += 1
    }
    Result(x, y, w)
  }
}
