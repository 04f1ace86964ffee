package repro.core

import org.scalacheck.{Gen, Prop, Test => SCTest}
import org.scalatest.funsuite.AnyFunSuite
import repro.core.NodeWeights.{Side, Terms}
import scala.util.Random

/** Verifies the production per-node terms of Algorithms 2/4 against the
  * naive Eq. (7)/(23) definitions of [[NaiveWeights]] in both directions,
  * the incremental ρ updates, the AM-GM b₁ sandwich (Eq. 12), the
  * stationary-point property of the update rule, the 1/n floor, and
  * descent of the Eq.-6 objective.
  */
class NodeWeightsSpec extends AnyFunSuite {

  private val n = 12
  private val k = 4

  private def checkProp(p: Prop): Unit = {
    val res = SCTest.check(SCTest.Parameters.default.withMinSuccessfulTests(30), p)
    assert(res.passed, res.status.toString)
  }

  private def randomInstance(seed: Long, n: Int = n, k: Int = k): (Array[Array[Double]],
      Array[Array[Double]], Array[Double], Array[Double], NodeWeights.Weights) = {
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

  /** The production terms of node `v`: the sweep's aggregate pass, then its per-node function. */
  private def fastTerms(own: Side, other: Side, v: Int): Terms =
    NodeWeights.terms(NodeWeights.aggregates(own, other), own, other, v)

  private def epoch(forward: Boolean, x: Array[Array[Double]], y: Array[Array[Double]],
                    dout: Array[Double], din: Array[Double], w: NodeWeights.Weights,
                    lambda: Double, rng: Random): Unit =
    if (forward) NodeWeights.updateFwdWeights(x, y, dout, din, w, lambda, rng)
    else NodeWeights.updateBwdWeights(x, y, dout, din, w, lambda, rng)

  for (seed <- Seq(1L, 2L, 3L)) {
    test(s"fast a1,a2,b2 equal the naive Eq.(7) definitions (seed=$seed)") {
      val (x, y, dout, din, w) = randomInstance(seed)
      val (own, other) = NaiveWeights.sides(forward = false, x, y, dout, din, w)
      for (vStar <- Seq(0, 5, n - 1)) {
        val naive = NaiveWeights.terms(own, other, vStar)
        val fast = fastTerms(own, other, vStar)
        assert(math.abs(naive.a1 - fast.a1) < 1e-9, s"a1 v*=$vStar")
        assert(math.abs(naive.a2 - fast.a2) < 1e-9, s"a2 v*=$vStar")
        assert(math.abs(naive.b2 - fast.b2) < 1e-9, s"b2 v*=$vStar")
      }
    }

    test(s"fast a3 equals the naive Eq.(7) a3 exactly (seed=$seed)") {
      val (x, y, dout, din, w) = randomInstance(seed)
      val (own, other) = NaiveWeights.sides(forward = false, x, y, dout, din, w)
      for (vStar <- 0 until n) {
        val na3 = NaiveWeights.terms(own, other, vStar).a3
        val fa3 = fastTerms(own, other, vStar).a3
        assert(math.abs(na3 - fa3) < 1e-9, s"a3 v*=$vStar: naive=$na3 fast=$fa3")
      }
    }

    test(s"b1 approximation respects the Eq.(12) sandwich (seed=$seed)") {
      val (x, y, dout, din, w) = randomInstance(seed)
      val (own, other) = NaiveWeights.sides(forward = false, x, y, dout, din, w)
      for (vStar <- Seq(0, 3, 7)) {
        val b1exact = NaiveWeights.terms(own, other, vStar).b1
        val mid = NaiveWeights.b1Middle(own, other, vStar)
        // Cauchy–Schwarz direction holds unconditionally:
        assert(b1exact / k <= mid + 1e-9, s"lower bound v*=$vStar")
        // and the production approximation is exactly (k'/2)·mid:
        val b1approx = fastTerms(own, other, vStar).b1
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
      val (own, other) = NaiveWeights.sides(forward = false, x, y, dout, din, w)
      for (vStar <- Seq(0, 5)) {
        val b1exact = NaiveWeights.terms(own, other, vStar).b1
        val mid = NaiveWeights.b1Middle(own, other, vStar)
        assert(mid <= b1exact + 1e-9, s"upper bound v*=$vStar")
      }
    }
  }

  test("production terms equal the naive Eq.(7)/(23) terms in both directions (property)") {
    val gen = for {
      n <- Gen.choose(2, 12); k <- Gen.choose(1, 6); seed <- Gen.choose(0L, 1000L)
    } yield (n, k, seed)
    checkProp(Prop.forAll(gen) { case (n, k, seed) =>
      val (x, y, dout, din, w) = randomInstance(seed, n, k)
      Seq(false, true).forall { forward =>
        val (own, other) = NaiveWeights.sides(forward, x, y, dout, din, w)
        (0 until n).forall { v =>
          val naive = NaiveWeights.terms(own, other, v)
          val fast = fastTerms(own, other, v)
          val mid = NaiveWeights.b1Middle(own, other, v)
          Seq(naive.a1 - fast.a1, naive.a2 - fast.a2, naive.a3 - fast.a3, naive.b2 - fast.b2,
            k / 2.0 * mid - fast.b1).forall(d => math.abs(d) <= 1e-9)
        }
      }
    })
  }

  test("one epoch in either direction keeps every weight >= 1/n (property)") {
    val gen = for {
      n <- Gen.choose(2, 12); k <- Gen.choose(1, 6); seed <- Gen.choose(0L, 1000L)
      lambda <- Gen.choose(0.0, 10.0); forward <- Gen.oneOf(false, true)
    } yield (n, k, seed, lambda, forward)
    checkProp(Prop.forAll(gen) { case (n, k, seed, lambda, forward) =>
      val (x, y, dout, din, w) = randomInstance(seed, n, k)
      epoch(forward, x, y, dout, din, w, lambda, new Random(seed))
      (if (forward) w.wf else w.wb).forall(_ >= 1.0 / n)
    })
  }

  for (forward <- Seq(false, true))
    test("with lambda = 0 an all-zero own row falls back to the 1/n floor, not NaN" +
        (if (forward) " (forward sweep)" else "")) {
      // Every term of that node is 0, so the update rule reads 0/0.
      val (x, y, dout, din, w) = randomInstance(23)
      (if (forward) x else y)(5) = new Array[Double](k)
      epoch(forward, x, y, dout, din, w, lambda = 0, new Random(0))
      val own = if (forward) w.wf else w.wb
      assert(own(5) == 1.0 / n)
      assert(own.forall(java.lang.Double.isFinite))
    }

  test("update rule is the stationary point of the paper's derivative") {
    val (x, y, dout, din, w) = randomInstance(7)
    val (own, other) = NaiveWeights.sides(forward = false, x, y, dout, din, w)
    val Terms(a1, a2, a3, b1, b2) = NaiveWeights.terms(own, other, 4)
    val lambda = 10.0
    val wOpt = (a1 + a2 - a3) / (b1 + b2 + lambda)
    // ∂O/∂w = 2(a3−a2−a1) + 2(b1+b2+λ)w must vanish at wOpt
    val deriv = 2 * (a3 - a2 - a1) + 2 * (b1 + b2 + lambda) * wOpt
    assert(math.abs(deriv) < 1e-9)
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
    val before = NaiveWeights.objective(x, y, dout, din, w, lambda = 1.0)
    val rng = new Random(0)
    for (_ <- 1 to 5) {
      NodeWeights.updateBwdWeights(x, y, dout, din, w, lambda = 1.0, rng)
      NodeWeights.updateFwdWeights(x, y, dout, din, w, lambda = 1.0, rng)
    }
    val after = NaiveWeights.objective(x, y, dout, din, w, lambda = 1.0)
    assert(after < before, s"objective did not decrease: $before -> $after")
  }

  for (forward <- Seq(false, true))
    test("incremental rho maintenance matches recomputation after an epoch" +
        (if (forward) " (forward sweep)" else "")) {
      // Run one epoch with the production code, then compare the *final
      // weight vector* against an epoch run that recomputes aggregates
      // before each node.
      val (x, y, dout, din, w0) = randomInstance(19)
      val wIncr = NodeWeights.Weights(w0.wf.clone(), w0.wb.clone())
      epoch(forward, x, y, dout, din, wIncr, lambda = 5, new Random(42))

      // Reference: identical update order, naive per-node recomputation with
      // the *approximated* b1 (to isolate the rho bookkeeping).
      val wRef = NodeWeights.Weights(w0.wf.clone(), w0.wb.clone())
      val (own, other) = NaiveWeights.sides(forward, x, y, dout, din, wRef)
      val incr = if (forward) wIncr.wf else wIncr.wb
      val order = new Random(42).shuffle((0 until n).toVector)
      order.foreach { i =>
        val t = NaiveWeights.terms(own, other, i)
        val b1 = k / 2.0 * NaiveWeights.b1Middle(own, other, i)
        own.w(i) = math.max(1.0 / n, (t.a1 + t.a2 - t.a3) / (b1 + t.b2 + 5))
      }
      for (v <- 0 until n)
        assert(math.abs(incr(v) - own.w(v)) < 1e-8,
          s"weight($v): incr=${incr(v)} ref=${own.w(v)}")
    }

  test("init clamps dangling nodes to the 1/n floor") {
    val w = NodeWeights.init(Array(0.0, 3.0, 1.0))
    assert(w.wf(0) == 1.0 / 3)
    assert(w.wf(1) == 3.0)
    assert(w.wb.toSeq == Seq(1.0, 1.0, 1.0))
  }
}
