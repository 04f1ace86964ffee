package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.linalg.Dense
import scala.util.Random

/** Verifies every accelerated closed form of Algorithms 2/4 against the
  * naive Eq. (7)/(23) definitions on random inputs, the incremental ρ
  * updates, the AM-GM b₁ sandwich (Eq. 12), the stationary-point property
  * of the update rule, and descent of the Eq.-6 objective.
  */
class NodeWeightsSpec extends AnyFunSuite {

  private val n = 12
  private val k = 4

  private def randomInstance(seed: Long): (Array[Array[Double]], Array[Array[Double]],
      Array[Double], Array[Double], NodeWeights.Weights) = {
    val rng = new Random(seed)
    val x = Array.fill(n, k)(rng.nextGaussian() * 0.3)
    val y = Array.fill(n, k)(rng.nextGaussian() * 0.3)
    val dout = Array.fill(n)(1.0 + rng.nextInt(5))
    val din = Array.fill(n)(1.0 + rng.nextInt(5))
    val w = NodeWeights.Weights(
      Array.fill(n)(0.2 + rng.nextDouble()),
      Array.fill(n)(0.2 + rng.nextDouble()))
    (x, y, dout, din, w)
  }

  /** Recompute the accelerated backward terms for a single node from the
    * epoch aggregates, mirroring the shared sweep's backward inner loop.
    */
  private def fastBwdTerms(x: Array[Array[Double]], y: Array[Array[Double]],
                           dout: Array[Double], din: Array[Double],
                           w: NodeWeights.Weights, vStar: Int)
      : (Double, Double, Double, Double, Double) = {
    val xi = new Array[Double](k); val chi = new Array[Double](k)
    val lam = Array.ofDim[Double](k, k)
    val rho1 = new Array[Double](k); val rho2 = new Array[Double](k)
    val phi = new Array[Double](k)
    for (u <- 0 until n) {
      val wf = w.wf(u); val xu = x(u); val wb = w.wb(u); val yu = y(u)
      val xy = Dense.dot(xu, yu)
      for (r <- 0 until k) {
        xi(r) += dout(u) * wf * xu(r)
        chi(r) += wf * xu(r)
        phi(r) += wf * wf * xu(r) * xu(r)
        rho1(r) += wb * yu(r)
        rho2(r) += wf * wf * wb * xy * xu(r)
      }
      for (p <- 0 until k; q <- 0 until k) lam(p)(q) += wf * wf * xu(p) * xu(q)
    }
    val xv = x(vStar); val yv = y(vStar); val wfV = w.wf(vStar)
    val xyV = Dense.dot(xv, yv)
    val a1 = Dense.dot(xi, yv)
    val chiM = Dense.axpy(chi, -wfV, xv)
    val s = Dense.dot(chiM, yv)
    val a2 = din(vStar) * s
    val b2 = s * s
    val lamYv = Array.tabulate(k)(i => Dense.dot(lam(i), yv))
    val a3 = Dense.dot(rho1, lamYv) - w.wb(vStar) * Dense.dot(yv, lamYv) -
      Dense.dot(rho2, yv) + w.wb(vStar) * xyV * xyV * wfV * wfV
    var b1approx = 0.0
    for (r <- 0 until k) b1approx += yv(r) * yv(r) * (phi(r) - wfV * wfV * xv(r) * xv(r))
    b1approx *= k / 2.0
    (a1, a2, a3, b1approx, b2)
  }

  for (seed <- Seq(1L, 2L, 3L)) {
    test(s"fast a1,a2,b2 equal the naive Eq.(7) definitions (seed=$seed)") {
      val (x, y, dout, din, w) = randomInstance(seed)
      for (vStar <- Seq(0, 5, n - 1)) {
        val (na1, na2, _, _, nb2) = NodeWeights.naiveBwdTerms(x, y, dout, din, w, vStar)
        val (fa1, fa2, _, _, fb2) = fastBwdTerms(x, y, dout, din, w, vStar)
        assert(math.abs(na1 - fa1) < 1e-9, s"a1 v*=$vStar")
        assert(math.abs(na2 - fa2) < 1e-9, s"a2 v*=$vStar")
        assert(math.abs(nb2 - fb2) < 1e-9, s"b2 v*=$vStar")
      }
    }

    test(s"fast a3 equals the naive Eq.(7) a3 exactly (seed=$seed)") {
      val (x, y, dout, din, w) = randomInstance(seed)
      for (vStar <- 0 until n) {
        val (_, _, na3, _, _) = NodeWeights.naiveBwdTerms(x, y, dout, din, w, vStar)
        val (_, _, fa3, _, _) = fastBwdTerms(x, y, dout, din, w, vStar)
        assert(math.abs(na3 - fa3) < 1e-9, s"a3 v*=$vStar: naive=$na3 fast=$fa3")
      }
    }

    test(s"b1 approximation respects the Eq.(12) sandwich (seed=$seed)") {
      val (x, y, dout, din, w) = randomInstance(seed)
      for (vStar <- Seq(0, 3, 7)) {
        val (_, _, _, b1exact, _) = NodeWeights.naiveBwdTerms(x, y, dout, din, w, vStar)
        val mid = NodeWeights.b1Middle(x, y, w, vStar)
        // Cauchy–Schwarz direction holds unconditionally:
        assert(b1exact / k <= mid + 1e-9, s"lower bound v*=$vStar")
        // and the production approximation is exactly (k'/2)·mid:
        val (_, _, _, b1approx, _) = fastBwdTerms(x, y, dout, din, w, vStar)
        assert(math.abs(b1approx - k / 2.0 * mid) < 1e-9, "approx = (k'/2)·mid")
      }
    }

    test(s"Eq.(12) upper bound mid <= b1 holds for sign-aligned embeddings (seed=$seed)") {
      // The paper's second inequality needs same-sign summands, which the
      // nonnegative-proximity regime of PPR embeddings provides.
      val rng = new Random(seed + 100)
      val x = Array.fill(n, k)(rng.nextDouble())
      val y = Array.fill(n, k)(rng.nextDouble())
      val dout = Array.fill(n)(2.0); val din = Array.fill(n)(2.0)
      val w = NodeWeights.Weights(Array.fill(n)(1.0), Array.fill(n)(1.0))
      for (vStar <- Seq(0, 5)) {
        val (_, _, _, b1exact, _) = NodeWeights.naiveBwdTerms(x, y, dout, din, w, vStar)
        val mid = NodeWeights.b1Middle(x, y, w, vStar)
        assert(mid <= b1exact + 1e-9, s"upper bound v*=$vStar")
      }
    }
  }

  test("update rule is the stationary point of the paper's derivative") {
    val (x, y, dout, din, w) = randomInstance(7)
    val vStar = 4
    val (a1, a2, a3, b1, b2) = NodeWeights.naiveBwdTerms(x, y, dout, din, w, vStar)
    val lambda = 10.0
    val wOpt = (a1 + a2 - a3) / (b1 + b2 + lambda)
    // ∂O/∂w = 2(a3−a2−a1) + 2(b1+b2+λ)w must vanish at wOpt
    val deriv = 2 * (a3 - a2 - a1) + 2 * (b1 + b2 + lambda) * wOpt
    assert(math.abs(deriv) < 1e-9)
  }

  test("naive forward terms mirror naive backward terms on a symmetric instance") {
    // With x ↔ y, wf ↔ wb, dout ↔ din swapped, forward terms equal backward terms.
    val (x, y, dout, din, w) = randomInstance(11)
    val swapped = NodeWeights.Weights(w.wb.clone(), w.wf.clone())
    for (i <- Seq(0, 6)) {
      val bwd = NodeWeights.naiveBwdTerms(x, y, dout, din, w, i)
      val fwd = NodeWeights.naiveFwdTerms(y, x, din, dout, swapped, i)
      assert(math.abs(bwd._1 - fwd._1) < 1e-9, "a1")
      assert(math.abs(bwd._2 - fwd._2) < 1e-9, "a2")
      assert(math.abs(bwd._3 - fwd._3) < 1e-9, "a3")
      assert(math.abs(bwd._4 - fwd._4) < 1e-9, "b1")
      assert(math.abs(bwd._5 - fwd._5) < 1e-9, "b2")
    }
  }

  test("one epoch of updates never violates the 1/n floor") {
    val (x, y, dout, din, w) = randomInstance(13)
    val rng = new Random(0)
    NodeWeights.updateBwdWeights(x, y, dout, din, w, lambda = 10, rng)
    NodeWeights.updateFwdWeights(x, y, dout, din, w, lambda = 10, rng)
    assert(w.wb.forall(_ >= 1.0 / n - 1e-12))
    assert(w.wf.forall(_ >= 1.0 / n - 1e-12))
  }

  test("coordinate descent reduces the Eq.(6) objective from the paper init") {
    val (x, y, _, _, _) = randomInstance(17)
    // make X·Yᵀ resemble a plausible proximity so degrees are reachable
    val dout = Array.fill(n)(2.0)
    val din = Array.fill(n)(2.0)
    val w = NodeWeights.init(dout)
    val before = NodeWeights.objective(x, y, dout, din, w, lambda = 1.0)
    val rng = new Random(0)
    for (_ <- 1 to 5) {
      NodeWeights.updateBwdWeights(x, y, dout, din, w, lambda = 1.0, rng)
      NodeWeights.updateFwdWeights(x, y, dout, din, w, lambda = 1.0, rng)
    }
    val after = NodeWeights.objective(x, y, dout, din, w, lambda = 1.0)
    assert(after < before, s"objective did not decrease: $before -> $after")
  }

  // Both directions of the shared sweep against their own naive terms;
  // for the forward sweep (Algorithm 4) b1Middle is read with the roles
  // of (X, w⃗) and (Y, w⃖) swapped.
  for (forward <- Seq(false, true))
    test("incremental rho maintenance matches recomputation after an epoch" +
        (if (forward) " (forward sweep)" else "")) {
      // Run one epoch with the production code, then compare the *final
      // weight vector* against an epoch run that recomputes aggregates
      // before each node.
      val (x, y, dout, din, w0) = randomInstance(19)
      val wIncr = NodeWeights.Weights(w0.wf.clone(), w0.wb.clone())
      if (forward) NodeWeights.updateFwdWeights(x, y, dout, din, wIncr, lambda = 5, new Random(42))
      else NodeWeights.updateBwdWeights(x, y, dout, din, wIncr, lambda = 5, new Random(42))

      // Reference: identical update order, naive per-node recomputation with
      // the *approximated* b1 (to isolate the rho bookkeeping).
      val wRef = NodeWeights.Weights(w0.wf.clone(), w0.wb.clone())
      val (ref, incr) = if (forward) (wRef.wf, wIncr.wf) else (wRef.wb, wIncr.wb)
      val order = new Random(42).shuffle((0 until n).toVector)
      order.foreach { i =>
        val (a1, a2, a3, _, b2) =
          if (forward) NodeWeights.naiveFwdTerms(x, y, dout, din, wRef, i)
          else NodeWeights.naiveBwdTerms(x, y, dout, din, wRef, i)
        val mid =
          if (forward) NodeWeights.b1Middle(y, x, NodeWeights.Weights(wRef.wb, wRef.wf), i)
          else NodeWeights.b1Middle(x, y, wRef, i)
        val b1 = k / 2.0 * mid
        ref(i) = math.max(1.0 / n, (a1 + a2 - a3) / (b1 + b2 + 5))
      }
      for (v <- 0 until n)
        assert(math.abs(incr(v) - ref(v)) < 1e-8,
          s"weight($v): incr=${incr(v)} ref=${ref(v)}")
    }

  test("init clamps dangling nodes to the 1/n floor") {
    val w = NodeWeights.init(Array(0.0, 3.0, 1.0))
    assert(w.wf(0) == 1.0 / 3)
    assert(w.wf(1) == 3.0)
    assert(w.wb.toSeq == Seq(1.0, 1.0, 1.0))
  }
}
