package repro.core

import repro.linalg.Dense
import scala.util.Random

/** Algorithms 2 and 4 — coordinate-descent learning of the forward and
  * backward node weights of NRP, with every acceleration from Section 4.3
  * / Appendix B: the shared aggregates ξ, χ, Λ, φ computed once per
  * epoch, ρ₁/ρ₂ maintained incrementally after every single weight update
  * (Eqs. 11/26), and the AM-GM approximation of b₁ (Eqs. 14/29). One
  * epoch over all nodes costs O(n·k′²).
  *
  * Runs driver-local over X/Y: the paper's descent is inherently
  * sequential (ρ's change after *each* weight) and costs O(n·k′²).
  *
  * The `naive*` methods implement the unaccelerated O(n²k′²) definitions
  * (Eqs. 7/23) and the Eq.-6 objective verbatim; they exist so the test
  * suite can prove each closed form exact and the b₁ bound (Eq. 12) valid.
  */
object NodeWeights {

  /** Mutable weight state: `wf(u)` = w⃗_u (forward), `wb(v)` = w⃖_v (backward). */
  final case class Weights(wf: Array[Double], wb: Array[Double])

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
    sweep(y, w.wb, din, x, w.wf, dout, lambda, rng)

  /** Algorithm 4 — one epoch of forward-weight updates, in place. */
  def updateFwdWeights(x: Array[Array[Double]], y: Array[Array[Double]],
                       dout: Array[Double], din: Array[Double],
                       w: Weights, lambda: Double, rng: Random): Unit =
    sweep(x, w.wf, dout, y, w.wb, din, lambda, rng)

  /** One epoch of coordinate descent on the weights `ownW` of the side
    * whose embeddings are `own`, holding the other side fixed. Written in
    * Algorithm 2's names (own = Y, d_in, w⃖; other = X, d_out, w⃗);
    * Algorithm 4 is the same sweep with the roles swapped (Eqs. 23–29).
    */
  private def sweep(own: Array[Array[Double]], ownW: Array[Double], ownDeg: Array[Double],
                    other: Array[Array[Double]], otherW: Array[Double], otherDeg: Array[Double],
                    lambda: Double, rng: Random): Unit = {
    val n = own.length
    val k = if (n == 0) 0 else own(0).length
    // Shared aggregates (Eqs. 9, 10, 13 / 24, 25, 28) — O(n·k′²) once per epoch.
    val xi = new Array[Double](k)
    val chi = new Array[Double](k)
    val lam = Array.ofDim[Double](k, k)
    val rho1 = new Array[Double](k)
    val rho2 = new Array[Double](k)
    val phi = new Array[Double](k)
    var u = 0
    while (u < n) {
      val wfU = otherW(u); val xu = other(u)
      var r = 0
      while (r < k) {
        xi(r) += otherDeg(u) * wfU * xu(r)
        chi(r) += wfU * xu(r)
        phi(r) += wfU * wfU * xu(r) * xu(r)
        r += 1
      }
      var p = 0
      while (p < k) {
        val c = wfU * wfU * xu(p)
        var q = 0
        while (q < k) { lam(p)(q) += c * xu(q); q += 1 }
        p += 1
      }
      val wbU = ownW(u); val yu = own(u)
      val xyU = Dense.dot(xu, yu)
      r = 0
      while (r < k) {
        rho1(r) += wbU * yu(r)
        rho2(r) += wfU * wfU * wbU * xyU * xu(r)
        r += 1
      }
      u += 1
    }
    // Coordinate descent in random order (Algorithm 2, line 4).
    val order = rng.shuffle((0 until n).toVector)
    order.foreach { vStar =>
      val xv = other(vStar); val yv = own(vStar)
      val wfV = otherW(vStar)
      val xyV = Dense.dot(xv, yv)
      val a1 = Dense.dot(xi, yv)
      val chiMinus = Dense.axpy(chi, -wfV, xv)
      val s = Dense.dot(chiMinus, yv)
      val a2 = ownDeg(vStar) * s
      val b2 = s * s
      val lamYv = matVec(lam, yv)
      val a3 = Dense.dot(rho1, lamYv) - ownW(vStar) * Dense.dot(yv, lamYv) -
        Dense.dot(rho2, yv) + ownW(vStar) * xyV * xyV * wfV * wfV
      var b1 = 0.0
      var r = 0
      while (r < k) { b1 += yv(r) * yv(r) * (phi(r) - wfV * wfV * xv(r) * xv(r)); r += 1 }
      b1 *= k / 2.0
      val wOld = ownW(vStar)
      // guard the λ=0, zero-row corner: a vanishing denominator must fall
      // back to the 1/n floor, not propagate NaN/∞ into the embeddings
      val cand = (a1 + a2 - a3) / (b1 + b2 + lambda)
      val wNew = if (java.lang.Double.isFinite(cand)) math.max(1.0 / n, cand) else 1.0 / n
      ownW(vStar) = wNew
      // Incremental ρ maintenance (Eqs. 11 / 26).
      val delta = wNew - wOld
      r = 0
      while (r < k) {
        rho1(r) += delta * yv(r)
        rho2(r) += delta * wfV * wfV * xyV * xv(r)
        r += 1
      }
    }
  }

  private def matVec(m: Array[Array[Double]], v: Array[Double]): Array[Double] = {
    val out = new Array[Double](v.length)
    var i = 0
    while (i < v.length) { out(i) = Dense.dot(m(i), v); i += 1 }
    out
  }

  // ------------------------------------------------------------------
  // Naive O(n²k′²) reference implementations — test oracles only.
  // ------------------------------------------------------------------

  /** The five backward-update terms of Eq. (7), computed verbatim.
    * Returns (a1, a2, a3, b1Exact, b2) for node v*.
    */
  def naiveBwdTerms(x: Array[Array[Double]], y: Array[Array[Double]],
                    dout: Array[Double], din: Array[Double],
                    w: Weights, vStar: Int): (Double, Double, Double, Double, Double) = {
    val n = x.length
    val yv = y(vStar)
    var a1 = 0.0; var a2 = 0.0; var a3 = 0.0; var b1 = 0.0
    var sB2 = 0.0
    var u = 0
    while (u < n) {
      val proj = w.wf(u) * Dense.dot(x(u), yv)
      a1 += dout(u) * proj
      if (u != vStar) {
        a2 += proj
        b1 += proj * proj
        sB2 += proj
      }
      var inner = 0.0
      var v = 0
      while (v < n) {
        if (v != u && v != vStar) inner += w.wf(u) * Dense.dot(x(u), y(v)) * w.wb(v)
        v += 1
      }
      a3 += inner * proj
      u += 1
    }
    (a1, din(vStar) * a2, a3, b1, sB2 * sB2)
  }

  /** The five forward-update terms of Eq. (23), computed verbatim. */
  def naiveFwdTerms(x: Array[Array[Double]], y: Array[Array[Double]],
                    dout: Array[Double], din: Array[Double],
                    w: Weights, uStar: Int): (Double, Double, Double, Double, Double) = {
    val n = x.length
    val xu = x(uStar)
    var a1 = 0.0; var a2 = 0.0; var a3 = 0.0; var b1 = 0.0
    var sB2 = 0.0
    var v = 0
    while (v < n) {
      val proj = Dense.dot(xu, y(v)) * w.wb(v)
      a1 += din(v) * proj
      if (v != uStar) {
        a2 += proj
        b1 += proj * proj
        sB2 += proj
      }
      var inner = 0.0
      var u = 0
      while (u < n) {
        if (u != v && u != uStar) inner += w.wf(u) * Dense.dot(x(u), y(v)) * w.wb(v)
        u += 1
      }
      a3 += inner * proj
      v += 1
    }
    (a1, dout(uStar) * a2, a3, b1, sB2 * sB2)
  }

  /** The middle term of the AM-GM sandwich Eq. (12)/(27):
    * `Σ_{u≠v*} w⃗_u² Σ_r X_u[r]²Y_{v*}[r]²` (backward direction).
    */
  def b1Middle(x: Array[Array[Double]], y: Array[Array[Double]],
               w: Weights, vStar: Int): Double = {
    val n = x.length; val k = x(0).length
    val yv = y(vStar)
    var s = 0.0
    var u = 0
    while (u < n) {
      if (u != vStar) {
        var r = 0
        var t = 0.0
        while (r < k) { t += x(u)(r) * x(u)(r) * yv(r) * yv(r); r += 1 }
        s += w.wf(u) * w.wf(u) * t
      }
      u += 1
    }
    s
  }

  /** The Eq.-6 objective (squared-L2 reading, matching the derivatives). */
  def objective(x: Array[Array[Double]], y: Array[Array[Double]],
                dout: Array[Double], din: Array[Double],
                w: Weights, lambda: Double): Double = {
    val n = x.length
    var o = 0.0
    var v = 0
    while (v < n) {
      var sIn = 0.0
      var u = 0
      while (u < n) {
        if (u != v) sIn += w.wf(u) * Dense.dot(x(u), y(v)) * w.wb(v)
        u += 1
      }
      val dIn = sIn - din(v)
      o += dIn * dIn
      v += 1
    }
    var u = 0
    while (u < n) {
      var sOut = 0.0
      var v2 = 0
      while (v2 < n) {
        if (v2 != u) sOut += w.wf(u) * Dense.dot(x(u), y(v2)) * w.wb(v2)
        v2 += 1
      }
      val dOut = sOut - dout(u)
      o += dOut * dOut
      o += lambda * (w.wf(u) * w.wf(u) + w.wb(u) * w.wb(u))
      u += 1
    }
    o
  }
}
