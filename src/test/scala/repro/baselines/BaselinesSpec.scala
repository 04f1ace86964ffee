package repro.baselines

import repro.SparkSpec
import repro.graph.{Generators, Graph}
import repro.linalg.{Csr, Dense, DenseMat}
import repro.ppr.ExactPPR
import repro.svd.BKSVD

/** Shape/semantics tests for every reimplemented baseline. */
class BaselinesSpec extends SparkSpec {

  private lazy val g9 = Generators.example9(spark)
  private lazy val sbm = Generators.dcsbm(spark, n = 150, avgDeg = 5, numLabels = 3, seed = 51).graph

  private def finite(e: Emb): Unit = {
    assert(e.x.flatten.forall(v => !v.isNaN && !v.isInfinite))
    assert(e.y.flatten.forall(v => !v.isNaN && !v.isInfinite))
  }

  // ---- AROPE -----------------------------------------------------------

  test("AROPE produces symmetric-signed embeddings of width k") {
    val e = AROPE(g9, k = 4)
    assert(e.x.length == 9 && e.dim == 4)
    finite(e)
    // scores are symmetric because XYᵀ = U f(Λ) Uᵀ
    for (u <- 0 until 9; v <- 0 until 9)
      assert(math.abs(e.score(u, v) - e.score(v, u)) < 1e-8)
  }

  test("AROPE first-order-dominant weights approximate the adjacency") {
    val e = AROPE(g9, k = 9, weights = Array(1.0))
    val a = ExactPPR.adjacency(g9)
    for (u <- 0 until 9; v <- 0 until 9 if u != v)
      assert(math.abs(e.score(u, v) - a(u)(v)) < 0.05, s"($u,$v): ${e.score(u, v)}")
  }

  test("AROPE recovers signed eigenvalues (path graph has negative modes)") {
    // P2 path: eigenvalues ±1; with f(λ)=λ the score must reproduce A,
    // which requires a correctly recovered negative eigenvalue.
    val g = Graph.fromLocal(spark, Seq((0L, 1L)), n = 2, directed = false)
    val e = AROPE(g, k = 2, weights = Array(1.0))
    assert(math.abs(e.score(0, 1) - 1.0) < 1e-6)
    assert(math.abs(e.score(0, 0)) < 1e-6)
  }

  test("symmetrized view of a directed graph contains both orientations") {
    val g = Graph.fromLocal(spark, Seq((0L, 1L)), n = 2, directed = true)
    val sym = g.symmetrized
    assert(sym.m == 2)
  }

  // ---- RandNE ----------------------------------------------------------

  test("RandNE embeddings are symmetric, finite, and edge-aware") {
    val e = RandNE(sbm, k = 16)
    assert(e.symmetric)
    finite(e)
    // E·Eᵀ approximates a damped adjacency polynomial: edges should score
    // above the all-pairs average.
    val n = sbm.n.toInt
    val edges = sbm.edges.collect().map(r => (r.getLong(0).toInt, r.getLong(1).toInt))
    val edgeAvg = edges.map { case (u, v) => e.score(u, v) }.sum / edges.length
    val rng = new scala.util.Random(3)
    val rand = Seq.fill(2000)((rng.nextInt(n), rng.nextInt(n)))
    val randAvg = rand.map { case (u, v) => e.score(u, v) }.sum / rand.size
    assert(edgeAvg > randAvg, s"edgeAvg=$edgeAvg randAvg=$randAvg")
  }

  test("RandNE is deterministic in the seed") {
    val a = RandNE(g9, k = 4, seed = 3)
    val b = RandNE(g9, k = 4, seed = 3)
    assert(a.x.map(_.toSeq).toSeq == b.x.map(_.toSeq).toSeq)
  }

  // ---- STRAP -----------------------------------------------------------

  test("STRAP scores approximate the transpose proximity pi(u,v)+pi(v,u)") {
    val e = STRAP(g9, k = 18, delta = 1e-6) // k' = 9 = full rank
    val pi = ExactPPR.ppr(g9, 0.15)
    for (u <- 0 until 9; v <- 0 until 9 if u != v) {
      val target = pi(u)(v) + pi(v)(u)
      assert(math.abs(e.score(u, v) - target) < 0.05,
        s"($u,$v): ${e.score(u, v)} vs $target")
    }
  }

  test("STRAP inherits the PPR-deficiency ordering on the example graph") {
    val e = STRAP(g9, k = 18, delta = 1e-6)
    assert(e.score(8, 6) > e.score(1, 3),
      "STRAP (transpose proximity) still prefers (v9,v7) over (v2,v4)")
  }

  test("STRAP produces k/2-dimensional forward and backward embeddings") {
    val e = STRAP(sbm, k = 16)
    assert(!e.symmetric)
    assert(e.dim == 8)
    finite(e)
  }

  // ---- NetMF -----------------------------------------------------------

  test("NetMF matrix entries match the closed form on a tiny graph") {
    // triangle graph: P = (J−I)/2, P² = (J+I)/4, S = (3J−I)/4,
    // M = vol/(bT)·S·D⁻¹ = 6/2 · S · 1/2 = 1.5·S, M′ = log max(1, M).
    val g = Graph.fromLocal(spark, Seq((0L, 1L), (1L, 2L), (0L, 2L)), n = 3, directed = false)
    val m = NetMF.matrix(g, windowT = 2, negB = 1.0)
    for (u <- 0 until 3; v <- 0 until 3) {
      // off-diag: M = 3·(3/4)·(1/2) = 1.125 → log(1.125); diag: 0.75 → clipped to 0
      val expected = if (u == v) 0.0 else math.log(1.125)
      assert(math.abs(m(u)(v) - expected) < 1e-9, s"($u,$v): ${m(u)(v)} vs $expected")
    }
  }

  test("NetMF is symmetric and finite on the example graph") {
    val e = NetMF(g9, k = 6)
    assert(e.symmetric)
    finite(e)
  }

  // ---- DeepWalkLite ----------------------------------------------------

  test("DeepWalkLite embeds neighbors closer than non-neighbors on an SBM") {
    val e = DeepWalkLite(sbm, k = 16, walksPerNode = 5, walkLen = 20)
    finite(e)
    // community homophily: same-community pairs should outscore random ones on average
    val n = 150
    val same = for (u <- 0 until n; v <- u + 1 until n if u % 3 == v % 3) yield e.score(u, v)
    val diff = for (u <- 0 until n; v <- u + 1 until n if u % 3 != v % 3) yield e.score(u, v)
    assert(same.sum / same.size > diff.sum / diff.size)
  }

  test("sgnsUpdate moves a positive pair together and a negative pair apart") {
    val c = Array(0.1, 0.2)
    val x = Array(0.3, -0.1)
    val before = Dense.dot(c, x)
    DeepWalkLite.sgnsUpdate(c, x, positive = true, lr = 0.5)
    assert(Dense.dot(c, x) > before)
    val c2 = Array(0.5, 0.5); val x2 = Array(0.5, 0.5)
    val before2 = Dense.dot(c2, x2)
    DeepWalkLite.sgnsUpdate(c2, x2, positive = false, lr = 0.5)
    assert(Dense.dot(c2, x2) < before2)
  }

  test("sigmoid saturates correctly") {
    assert(DeepWalkLite.sigmoid(0.0) == 0.5)
    assert(DeepWalkLite.sigmoid(20.0) == 1.0)
    assert(DeepWalkLite.sigmoid(-20.0) == 0.0)
  }

  // ---- APPLite ---------------------------------------------------------

  test("APPLite produces asymmetric forward/backward embeddings") {
    val e = APPLite(sbm, k = 16, samplesPerNode = 50)
    assert(!e.symmetric)
    assert(e.dim == 8)
    finite(e)
  }

  test("APPLite scores connected pairs above average on the example graph") {
    val e = APPLite(g9, k = 8, samplesPerNode = 2000, seed = 9)
    val edges = Generators.example9Edges
    val edgeAvg = edges.map { case (u, v) => e.score(u.toInt, v.toInt) }.sum / edges.size
    val all = for (u <- 0 until 9; v <- 0 until 9 if u != v) yield e.score(u, v)
    assert(edgeAvg > all.sum / all.size)
  }

  // ---- DNGRLite --------------------------------------------------------

  test("DNGRLite produces bounded bottleneck embeddings") {
    val e = DNGRLite(g9, k = 4, epochs = 3)
    assert(e.symmetric)
    assert(e.dim == 4)
    assert(e.x.flatten.forall(v => v >= -1.0 && v <= 1.0)) // tanh range
  }

  // ---- Mat (Csr, DenseMat) and the shared SVD ---------------------------

  test("Csr mult/multT agree with DenseMat") {
    val rng = new scala.util.Random(5)
    val dense = Array.fill(6, 4)(if (rng.nextDouble() < 0.5) rng.nextGaussian() else 0.0)
    val triples = for (i <- 0 until 6; j <- 0 until 4 if dense(i)(j) != 0.0)
      yield (i, j, dense(i)(j))
    val sparse = Csr.fromTriples(6, 4, triples.iterator)
    val b = Array.fill(4, 3)(rng.nextGaussian())
    val bT = Array.fill(6, 3)(rng.nextGaussian())
    val d = DenseMat(dense)
    val m1 = d.mult(b); val m2 = sparse.mult(b)
    for (i <- 0 until 6; j <- 0 until 3) assert(math.abs(m1(i)(j) - m2(i)(j)) < 1e-12)
    val t1 = d.multT(bT); val t2 = sparse.multT(bT)
    for (i <- 0 until 4; j <- 0 until 3) assert(math.abs(t1(i)(j) - t2(i)(j)) < 1e-12)
  }

  test("Csr.fromTriples sums duplicate entries") {
    val m = Csr.fromTriples(2, 2, Iterator((0, 1, 1.0), (1, 0, 5.0), (0, 1, 2.0)))
    assert(m.nnz == 2)
    val out = m.mult(Array(Array(0.0), Array(1.0)))
    assert(out(0)(0) == 3.0)
  }

  test("BKSVD reconstructs a low-rank dense matrix") {
    val rng = new scala.util.Random(6)
    val u0 = Array.fill(10, 2)(rng.nextGaussian())
    val v0 = Array.fill(8, 2)(rng.nextGaussian())
    val a = Dense.matmul(u0, Dense.transpose(v0))
    val BKSVD.Result(u, s, v) = BKSVD(DenseMat(a), 4, q = 4, seed = 33)
    val us = Array.tabulate(10, 4)((i, j) => u(i)(j) * s(j))
    val rec = Dense.matmul(us, Dense.transpose(v))
    for (i <- 0 until 10; j <- 0 until 8)
      assert(math.abs(rec(i)(j) - a(i)(j)) < 1e-6, s"($i,$j)")
  }
}
