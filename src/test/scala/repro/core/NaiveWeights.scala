package repro.core

import repro.core.NodeWeights.{Side, Terms, Weights}
import repro.linalg.Dense

/** The unaccelerated O(n²k′²) definitions behind Algorithms 2 and 4, as
  * test oracles for [[NodeWeights]]. They are written in the sweep's own
  * roles: `own` is the side whose weights are updated, `other` the side
  * held fixed, and a pair (u, v) scores w_other(u)·X_other(u)·Y_own(v)·w_own(v).
  * With own = (Y, w⃖, d_in) they are Eq. (7); with own = (X, w⃗, d_out),
  * Eq. (23).
  */
object NaiveWeights {

  /** (own, other) of Algorithm 4 when `forward`, else of Algorithm 2. */
  def sides(forward: Boolean, x: Array[Array[Double]], y: Array[Array[Double]],
            dout: Array[Double], din: Array[Double], w: Weights): (Side, Side) = {
    val fwd = Side(x, w.wf, dout); val bwd = Side(y, w.wb, din)
    if (forward) (fwd, bwd) else (bwd, fwd)
  }

  /** The five update terms of node `vStar`, computed verbatim; b₁ is exact. */
  def terms(own: Side, other: Side, vStar: Int): Terms = {
    val n = own.emb.length
    val yv = own.emb(vStar)
    var a1 = 0.0; var a2 = 0.0; var a3 = 0.0; var b1 = 0.0
    var u = 0
    while (u < n) {
      val proj = other.w(u) * Dense.dot(other.emb(u), yv)
      a1 += other.deg(u) * proj
      if (u != vStar) {
        a2 += proj
        b1 += proj * proj
      }
      var inner = 0.0
      var v = 0
      while (v < n) {
        if (v != u && v != vStar) inner += other.w(u) * Dense.dot(other.emb(u), own.emb(v)) * own.w(v)
        v += 1
      }
      a3 += inner * proj
      u += 1
    }
    Terms(a1, own.deg(vStar) * a2, a3, b1, a2 * a2)
  }

  /** The middle term of the AM-GM sandwich Eq. (12)/(27):
    * `Σ_{u≠v*} w_other(u)² Σ_r X_other(u)[r]²·Y_own(v*)[r]²`.
    */
  def b1Middle(own: Side, other: Side, vStar: Int): Double = {
    val yv = own.emb(vStar)
    var s = 0.0
    var u = 0
    while (u < own.emb.length) {
      if (u != vStar) {
        val xu = other.emb(u)
        var t = 0.0
        var r = 0
        while (r < yv.length) { t += xu(r) * xu(r) * yv(r) * yv(r); r += 1 }
        s += other.w(u) * other.w(u) * t
      }
      u += 1
    }
    s
  }

  /** The Eq.-6 objective (squared-L2 reading, matching the derivatives):
    * the in-degree side plus the out-degree side.
    */
  def objective(x: Array[Array[Double]], y: Array[Array[Double]],
                dout: Array[Double], din: Array[Double],
                w: Weights, lambda: Double): Double =
    Seq(false, true).map { forward =>
      val (own, other) = sides(forward, x, y, dout, din, w)
      sideObjective(own, other, lambda)
    }.sum

  /** `Σ_v (Σ_{u≠v} w_other(u)·X_other(u)·Y_own(v)·w_own(v) − deg_own(v))² + λ·w_own(v)²`. */
  private def sideObjective(own: Side, other: Side, lambda: Double): Double = {
    val n = own.emb.length
    var o = 0.0
    var v = 0
    while (v < n) {
      var s = 0.0
      var u = 0
      while (u < n) {
        if (u != v) s += other.w(u) * Dense.dot(other.emb(u), own.emb(v)) * own.w(v)
        u += 1
      }
      val d = s - own.deg(v)
      o += d * d + lambda * own.w(v) * own.w(v)
      v += 1
    }
    o
  }
}
