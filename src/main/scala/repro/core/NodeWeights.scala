package repro.core

import repro.linalg.Dense
import scala.util.Random

/** Algorithms 2 and 4 — coordinate-descent learning of the forward and
  * backward node weights of NRP, with every acceleration from Section 4.3
  * / Appendix B: the shared aggregates ξ, χ, Λ, φ computed once per
  * epoch, ρ₁/ρ₂ maintained incrementally after every single weight update
  * (Eqs. 11/26), and the AM-GM approximation of b₁ (Eqs. 14/29). One
  * epoch over all nodes costs O(n·k′²), driver-local over X/Y: the descent
  * is inherently sequential (ρ changes after *each* weight).
  */
object NodeWeights {

  /** Mutable weight state: `wf(u)` = w⃗_u (forward), `wb(v)` = w⃖_v (backward). */
  final case class Weights(wf: Array[Double], wb: Array[Double])

  /** One side of the descent — (Y, w⃖, d_in) or (X, w⃗, d_out); `w` is updated in place. */
  private[core] final case class Side(emb: Array[Array[Double]], w: Array[Double], deg: Array[Double])

  /** ξ, χ, Λ, φ, ρ₁, ρ₂ of Eqs. 9, 10, 13 (24, 25, 28); the sweep keeps ρ₁, ρ₂ current. */
  private[core] final case class Aggregates(xi: Array[Double], chi: Array[Double],
                                            lam: Array[Array[Double]], phi: Array[Double],
                                            rho1: Array[Double], rho2: Array[Double])

  /** The update terms of one node: w ← (a1 + a2 − a3) / (b1 + b2 + λ). */
  private[core] final case class Terms(a1: Double, a2: Double, a3: Double, b1: Double, b2: Double)

  /** Paper initialization (Algorithm 3, lines 3–4): w⃗_v = d_out(v),
    * w⃖_v = 1 — clamped to the 1/n feasibility floor for dangling nodes.
    */
  def init(dout: Array[Double]): Weights = {
    val n = dout.length
    Weights(dout.map(d => math.max(d, 1.0 / n)), Array.fill(n)(1.0))
  }

  /** Algorithm 2 — one epoch of backward-weight updates, in place. */
  def updateBwdWeights(x: Array[Array[Double]], y: Array[Array[Double]],
                       dout: Array[Double], din: Array[Double],
                       w: Weights, lambda: Double, rng: Random): Unit =
    sweep(Side(y, w.wb, din), Side(x, w.wf, dout), lambda, rng)

  /** Algorithm 4 — one epoch of forward-weight updates, in place. */
  def updateFwdWeights(x: Array[Array[Double]], y: Array[Array[Double]],
                       dout: Array[Double], din: Array[Double],
                       w: Weights, lambda: Double, rng: Random): Unit =
    sweep(Side(x, w.wf, dout), Side(y, w.wb, din), lambda, rng)

  /** One epoch of coordinate descent on the weights of `own`, holding
    * `other` fixed. Written in Algorithm 2's names (own = Y, d_in, w⃖;
    * other = X, d_out, w⃗); Algorithm 4 is the same sweep with the roles
    * swapped (Eqs. 23–29).
    */
  private def sweep(own: Side, other: Side, lambda: Double, rng: Random): Unit = {
    val n = own.emb.length
    val agg = aggregates(own, other)
    val k = agg.rho1.length
    // Coordinate descent in random order (Algorithm 2, line 4).
    rng.shuffle((0 until n).toVector).foreach { vStar =>
      val t = terms(agg, own, other, vStar)
      // guard the λ=0, zero-row corner: a vanishing denominator must fall
      // back to the 1/n floor, not propagate NaN/∞ into the embeddings
      val cand = (t.a1 + t.a2 - t.a3) / (t.b1 + t.b2 + lambda)
      val wNew = if (java.lang.Double.isFinite(cand)) math.max(1.0 / n, cand) else 1.0 / n
      val delta = wNew - own.w(vStar)
      own.w(vStar) = wNew
      // Incremental ρ maintenance (Eqs. 11 / 26).
      val xv = other.emb(vStar); val yv = own.emb(vStar)
      val wfV = other.w(vStar)
      val xyV = Dense.dot(xv, yv)
      var r = 0
      while (r < k) {
        agg.rho1(r) += delta * yv(r)
        agg.rho2(r) += delta * wfV * wfV * xyV * xv(r)
        r += 1
      }
    }
  }

  /** The per-epoch aggregate pass at the current weights, in O(n·k′²). */
  private[core] def aggregates(own: Side, other: Side): Aggregates = {
    val n = own.emb.length
    val k = if (n == 0) 0 else own.emb(0).length
    val agg = Aggregates(new Array[Double](k), new Array[Double](k), Array.ofDim[Double](k, k),
      new Array[Double](k), new Array[Double](k), new Array[Double](k))
    var u = 0
    while (u < n) {
      val wfU = other.w(u); val xu = other.emb(u)
      var r = 0
      while (r < k) {
        agg.xi(r) += other.deg(u) * wfU * xu(r)
        agg.chi(r) += wfU * xu(r)
        agg.phi(r) += wfU * wfU * xu(r) * xu(r)
        r += 1
      }
      var p = 0
      while (p < k) {
        val c = wfU * wfU * xu(p)
        var q = 0
        while (q < k) { agg.lam(p)(q) += c * xu(q); q += 1 }
        p += 1
      }
      val wbU = own.w(u); val yu = own.emb(u)
      val xyU = Dense.dot(xu, yu)
      r = 0
      while (r < k) {
        agg.rho1(r) += wbU * yu(r)
        agg.rho2(r) += wfU * wfU * wbU * xyU * xu(r)
        r += 1
      }
      u += 1
    }
    agg
  }

  /** The terms of node `vStar` from the aggregates in O(k′²): a₁, a₂, a₃
    * and b₂ exactly (Eqs. 9, 10 / 24, 25), b₁ by AM-GM (Eqs. 14 / 29).
    */
  private[core] def terms(agg: Aggregates, own: Side, other: Side, vStar: Int): Terms = {
    val k = agg.xi.length
    val xv = other.emb(vStar); val yv = own.emb(vStar)
    val wfV = other.w(vStar); val wbV = own.w(vStar)
    val xyV = Dense.dot(xv, yv)
    val a1 = Dense.dot(agg.xi, yv)
    val s = Dense.dot(Dense.axpy(agg.chi, -wfV, xv), yv)
    val lamYv = new Array[Double](k)
    var r = 0
    while (r < k) { lamYv(r) = Dense.dot(agg.lam(r), yv); r += 1 }
    val a3 = Dense.dot(agg.rho1, lamYv) - wbV * Dense.dot(yv, lamYv) -
      Dense.dot(agg.rho2, yv) + wbV * xyV * xyV * wfV * wfV
    var b1 = 0.0
    r = 0
    while (r < k) { b1 += yv(r) * yv(r) * (agg.phi(r) - wfV * wfV * xv(r) * xv(r)); r += 1 }
    Terms(a1, own.deg(vStar) * s, a3, b1 * (k / 2.0), s * s)
  }
}
