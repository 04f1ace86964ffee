package repro.svd

import repro.SparkSpec
import repro.graph.{Generators, Graph}
import repro.linalg.{Dense, Jacobi}
import repro.ppr.ExactPPR

/** Block-Krylov SVD vs the exact local SVD oracle. */
class BKSVDSpec extends SparkSpec {

  private def orthonormal(m: Array[Array[Double]], tol: Double = 1e-6): Unit = {
    val g = Dense.gram(m)
    for (i <- g.indices; j <- g.indices)
      assert(math.abs(g(i)(j) - (if (i == j) 1.0 else 0.0)) < tol, s"gram($i,$j)=${g(i)(j)}")
  }

  test("whiten produces orthonormal columns") {
    val x = BKSVD.gaussian(40, 5, seed = 1)
    orthonormal(BKSVD.whiten(x))
  }

  test("gaussian is deterministic in (seed, id)") {
    val a = BKSVD.gaussian(11, 4, seed = 5)
    assert(a.map(_.toSeq).toSeq == BKSVD.gaussian(11, 4, seed = 5).map(_.toSeq).toSeq)
    // row i depends on (seed, i) only, not on how many rows are drawn
    assert(a.take(7).map(_.toSeq).toSeq == BKSVD.gaussian(7, 4, seed = 5).map(_.toSeq).toSeq)
  }

  test("gaussian differs across seeds") {
    val a = BKSVD.gaussian(8, 4, seed = 5)
    val b = BKSVD.gaussian(8, 4, seed = 6)
    assert(a.zip(b).exists { case (ra, rb) => ra.toSeq != rb.toSeq })
  }

  test("iters follows the log(n)/sqrt(eps) schedule within clamps") {
    assert(BKSVD.iters(10, 0.9) >= 2)
    assert(BKSVD.iters(1000000, 0.01) <= 6)
    assert(BKSVD.iters(3000, 0.2) >= BKSVD.iters(3000, 0.8))
  }

  test("singular values match the exact SVD on the example graph") {
    val g = Generators.example9(spark)
    val exact = Jacobi.svdSmall(ExactPPR.adjacency(g))._2
    val got = BKSVD(g, kPrime = 4, eps = 0.1).sigma
    for (j <- 0 until 4)
      assert(math.abs(got(j) - exact(j)) < 0.05 * math.max(exact(j), 1.0),
        s"sigma($j): ${got(j)} vs ${exact(j)}")
  }

  test("U and V have orthonormal columns") {
    val g = Generators.dcsbm(spark, n = 150, avgDeg = 5, numLabels = 3, seed = 11).graph
    val r = BKSVD(g, kPrime = 8, eps = 0.2)
    orthonormal(r.u, 1e-5)
    orthonormal(r.v, 1e-5)
  }

  test("UΣVᵀ reconstructs A within the (1+eps)·sigma_{k+1} spectral bound") {
    val g = Generators.dcsbm(spark, n = 100, avgDeg = 4, numLabels = 2, seed = 12).graph
    val kP = 10
    val a = ExactPPR.adjacency(g)
    val exactSigma = Jacobi.svdSmall(a)._2
    val tail = if (exactSigma.length > kP) exactSigma(kP) else 0.0
    val r = BKSVD(g, kPrime = kP, eps = 0.2)
    val (u, v) = (r.u, r.v)
    val us = Array.tabulate(100, kP)((i, j) => u(i)(j) * r.sigma(j))
    val rec = Dense.matmul(us, Dense.transpose(v))
    // max-norm error ≤ spectral-norm error ≤ (1+eps)·sigma_{k+1} (+ slack)
    var maxErr = 0.0
    for (i <- 0 until 100; j <- 0 until 100)
      maxErr = math.max(maxErr, math.abs(rec(i)(j) - a(i)(j)))
    assert(maxErr <= 1.3 * tail + 0.05, s"maxErr=$maxErr tail=$tail")
  }

  test("exactly-low-rank matrices are recovered (almost) exactly") {
    // a disjoint union of complete bipartite stars has low-rank adjacency
    val edges = for (u <- 0L until 5L; v <- 5L until 10L) yield (u, v)
    val g = Graph.fromLocal(spark, edges, n = 10, directed = false)
    val a = ExactPPR.adjacency(g)
    val r = BKSVD(g, kPrime = 2, eps = 0.1)
    val (u, v) = (r.u, r.v)
    val us = Array.tabulate(10, 2)((i, j) => u(i)(j) * r.sigma(j))
    val rec = Dense.matmul(us, Dense.transpose(v))
    for (i <- 0 until 10; j <- 0 until 10)
      assert(math.abs(rec(i)(j) - a(i)(j)) < 1e-5, s"($i,$j)")
  }

  test("sigma is padded with zeros when rank < kPrime") {
    val g = Graph.fromLocal(spark, Seq((0L, 1L)), n = 4, directed = false)
    val r = BKSVD(g, kPrime = 3, eps = 0.2)
    assert(r.sigma.length == 3)
    assert(r.sigma(0) > 0.9) // the single edge has singular value 1
    assert(r.sigma(2) < 1e-6)
    assert(r.u.forall(_.length == 3) && r.v.forall(_.length == 3))
  }

  private def finiteShape(m: Array[Array[Double]], n: Int, k: Int): Unit =
    assert(m.length == n && m.forall(r => r.length == k && r.forall(v => !v.isNaN && !v.isInfinite)))

  test("kPrime > n returns finite n×kPrime factors with sigma zero-padded") {
    val g = Generators.example9(spark)
    val r = BKSVD(g, kPrime = 12, eps = 0.2)
    finiteShape(r.u, 9, 12); finiteShape(r.v, 9, 12)
    val exact = Jacobi.svdSmall(ExactPPR.adjacency(g))._2
    for (j <- exact.indices) assert(math.abs(r.sigma(j) - exact(j)) < 1e-6, s"sigma($j)")
    assert(r.sigma.drop(9).forall(_ == 0.0), r.sigma.mkString(","))
  }

  test("an edgeless graph gives zero sigma and finite zero factors") {
    val g = Graph.fromLocal(spark, Seq.empty[(Long, Long)], n = 5, directed = true)
    val r = BKSVD(g, kPrime = 3, eps = 0.2)
    assert(r.sigma.toSeq == Seq(0.0, 0.0, 0.0))
    finiteShape(r.u, 5, 3); finiteShape(r.v, 5, 3)
    assert(r.u.flatten.forall(_ == 0.0) && r.v.flatten.forall(_ == 0.0))
  }

  test("result is deterministic in the seed") {
    val g = Generators.example9(spark)
    val a = BKSVD(g, 3, 0.2, seed = 5)
    val b = BKSVD(g, 3, 0.2, seed = 5)
    assert(a.sigma.toSeq == b.sigma.toSeq)
    assert(a.u.map(_.toSeq).toSeq == b.u.map(_.toSeq).toSeq)
  }
}
