package repro.core

import org.scalacheck.{Gen, Prop, Test => SCTest}
import org.scalatest.funsuite.AnyFunSuite
import repro.TestGraphs.graph
import repro.graph.Generators
import repro.linalg.{Dense, Jacobi}
import repro.ppr.ExactPPR

/** Algorithm-1 tests: XYᵀ must approximate the truncated PPR Π′ within
  * the Theorem-1 budget, on the example graph and on random graphs.
  */
class ApproxPPRSpec extends AnyFunSuite {

  private def product(e: ApproxPPR.LocalEmb): Array[Array[Double]] =
    Dense.matmul(e.x, Dense.transpose(e.y))

  private def checkProp(p: Prop): Unit = {
    val res = SCTest.check(SCTest.Parameters.default.withMinSuccessfulTests(100), p)
    assert(res.passed, res.status.toString)
  }

  private def theorem1Bound(g: repro.graph.Graph, kP: Int, eps: Double,
                            alpha: Double, l1: Int): Double = {
    val sigma = Jacobi.svdSmall(ExactPPR.adjacency(g))._2
    val tail = if (sigma.length > kP) sigma(kP) else 0.0
    (1 + eps) * tail * (1 - alpha) * (1 - math.pow(1 - alpha, l1)) + math.pow(1 - alpha, l1 + 1)
  }

  test("XYᵀ approximates Π′ on the example graph within the Theorem-1 bound") {
    val g = Generators.example9
    val e = ApproxPPR(g, kPrime = 4, alpha = 0.15, l1 = 20, eps = 0.2)
    val got = product(e)
    val target = ExactPPR.pprTruncated(g, 0.15, 20)
    val bound = theorem1Bound(g, 4, 0.2, 0.15, 20)
    for (u <- 0 until 9; v <- 0 until 9; if u != v)
      assert(math.abs(got(u)(v) - target(u)(v)) <= bound + 0.02,
        s"pi'($u,$v): got=${got(u)(v)} want=${target(u)(v)} bound=$bound")
  }

  test("the off-diagonal error stays within the Theorem-1 bound on random graphs (property)") {
    val gen = for {
      n <- Gen.choose(2, 12); m <- Gen.choose(0, 4 * n); directed <- Gen.oneOf(false, true)
      edges <- Gen.listOfN(m, Gen.zip(Gen.choose(0, n - 1), Gen.choose(0, n - 1)))
      kP <- Gen.choose(1, n + 2); alpha <- Gen.oneOf(0.15, 0.5); l1 <- Gen.choose(1, 20)
      eps <- Gen.oneOf(0.1, 0.2, 0.9)
    } yield (graph(n, directed, edges: _*), kP, alpha, l1, eps)
    checkProp(Prop.forAll(gen) { case (g, kP, alpha, l1, eps) =>
      val got = product(ApproxPPR(g, kP, alpha, l1, eps))
      val target = ExactPPR.pprTruncated(g, alpha, l1)
      val bound = theorem1Bound(g, kP, eps, alpha, l1)
      val n = g.n.toInt
      (0 until n).forall(u => (0 until n).forall(v => u == v || math.abs(got(u)(v) - target(u)(v)) <= bound))
    })
  }

  test("full-rank factorization reproduces Π′ almost exactly") {
    val g = Generators.example9
    val e = ApproxPPR(g, kPrime = 9, alpha = 0.15, l1 = 40, eps = 0.1)
    val got = product(e)
    val target = ExactPPR.pprTruncated(g, 0.15, 40)
    for (u <- 0 until 9; v <- 0 until 9; if u != v)
      assert(math.abs(got(u)(v) - target(u)(v)) < 1e-4, s"($u,$v)")
  }

  test("Example 1 regime (k'=2): spot scores stay within the Theorem-1 budget") {
    // The paper's Example 1 reports X_v2·Y_v4 = 0.119 and X_v9·Y_v7 = 0.166
    // from *their* BKSVD draw; a rank-2 factorization only guarantees
    // agreement with Π up to the σ₃-sized Theorem-1 bound, so we check
    // that bound rather than their specific draw.
    val g = Generators.example9
    val e = ApproxPPR(g, kPrime = 2, alpha = 0.15, l1 = 20, eps = 0.2)
    val pi = ExactPPR.ppr(g, 0.15)
    val bound = theorem1Bound(g, 2, 0.2, 0.15, 20)
    val s24 = Dense.dot(e.x(1), e.y(3))
    val s97 = Dense.dot(e.x(8), e.y(6))
    assert(math.abs(s24 - pi(1)(3)) <= bound + 0.02, s"X_v2·Y_v4 = $s24, bound $bound")
    assert(math.abs(s97 - pi(8)(6)) <= bound + 0.02, s"X_v9·Y_v7 = $s97, bound $bound")
  }

  test("error decreases as l1 grows") {
    // Only the truncation term depends on l1, so the error is taken against
    // the rank-k′ factorization's own l1 = ∞ limit, not against Π: Theorem
    // 1's rank term would otherwise set the maximum on some graphs. With
    // X₁Yᵀ = P̃, XYᵀ(l1) = Σ_{i=1…l1} α(1−α)^i P^{i−1}P̃ and XYᵀ(1) = α(1−α)P̃,
    // so the limit is Π·XYᵀ(1)/α, Π = Σ_{j≥0} α(1−α)^j P^j.
    val g = Generators.dcsbm(n = 80, avgDeg = 4, numLabels = 2, seed = 32).graph
    def approx(l1: Int) = product(ApproxPPR(g, kPrime = 40, alpha = 0.15, l1 = l1, eps = 0.1))
    val limit = Dense.matmul(ExactPPR.ppr(g, 0.15), approx(1)).map(Dense.scale(_, 1 / 0.15))
    def err(l1: Int): Double = {
      val got = approx(l1)
      (for (u <- 0 until 80; v <- 0 until 80 if u != v)
        yield math.abs(got(u)(v) - limit(u)(v))).max
    }
    val e2 = err(2); val e20 = err(20)
    assert(e20 < e2, s"l1=2 err=$e2, l1=20 err=$e20")
  }

  test("kPrime > n and an edgeless graph give finite n×kPrime embeddings") {
    def finiteShape(e: ApproxPPR.LocalEmb, n: Int, k: Int): Unit =
      for (m <- Seq(e.x, e.y))
        assert(m.length == n && m.forall(r => r.length == k && r.forall(v => !v.isNaN && !v.isInfinite)))
    val g9 = Generators.example9
    val wide = ApproxPPR(g9, kPrime = 12, alpha = 0.15, l1 = 20, eps = 0.2)
    finiteShape(wide, 9, 12)
    // rank 9 = n: the factorization is exact off the diagonal
    val target = ExactPPR.pprTruncated(g9, 0.15, 20)
    val got = product(wide)
    for (u <- 0 until 9; v <- 0 until 9 if u != v) assert(math.abs(got(u)(v) - target(u)(v)) < 1e-4, s"($u,$v)")
    val empty = graph(4, directed = true)
    val e = ApproxPPR(empty, kPrime = 2, alpha = 0.15, l1 = 5, eps = 0.2)
    finiteShape(e, 4, 2)
    assert(e.x.flatten.forall(_ == 0.0) && e.y.flatten.forall(_ == 0.0))
  }

  test("directed graphs produce asymmetric scores") {
    val g = graph(3, directed = true, (0, 1), (1, 2), (2, 0), (0, 2))
    val e = ApproxPPR(g, kPrime = 3, alpha = 0.15, l1 = 20, eps = 0.1)
    val s01 = Dense.dot(e.x(0), e.y(1))
    val s10 = Dense.dot(e.x(1), e.y(0))
    assert(math.abs(s01 - s10) > 1e-3)
  }
}
