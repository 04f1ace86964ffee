package repro.core

import repro.SparkSpec
import repro.graph.Generators
import repro.linalg.Dense

/** End-to-end NRP tests, including the paper's headline motivating claim:
  * reweighting flips the counter-intuitive PPR ordering of (v₂,v₄) vs
  * (v₉,v₇) on the Fig.-1 graph.
  */
class NRPSpec extends SparkSpec {

  private lazy val g9 = Generators.example9(spark)
  private lazy val nrp9 = NRP(g9, NRP.Params(k = 8, l2 = 10, lambda = 0.0))

  test("embeddings have dimensionality k/2 each and are finite") {
    assert(nrp9.x.length == 9 && nrp9.y.length == 9)
    assert(nrp9.x(0).length == 4 && nrp9.y(0).length == 4)
    assert(nrp9.x.flatten.forall(v => !v.isNaN && !v.isInfinite))
    assert(nrp9.y.flatten.forall(v => !v.isNaN && !v.isInfinite))
  }

  test("headline: NRP ranks (v2,v4) above (v9,v7) — ApproxPPR does not") {
    val plain = ApproxPPR(g9, kPrime = 4, alpha = 0.15, l1 = 20, eps = 0.2)
    val pprScore24 = Dense.dot(plain.x(1), plain.y(3))
    val pprScore97 = Dense.dot(plain.x(8), plain.y(6))
    assert(pprScore97 > pprScore24, "vanilla PPR exhibits the Section-1 deficiency")

    val s24 = Dense.dot(nrp9.x(1), nrp9.y(3))
    val s97 = Dense.dot(nrp9.x(8), nrp9.y(6))
    assert(s24 > s97, s"NRP should flip the ordering: score24=$s24 score97=$s97")
  }

  test("weights respect the 1/n floor and are not all equal") {
    assert(nrp9.weights.wf.forall(_ >= 1.0 / 9 - 1e-12))
    assert(nrp9.weights.wb.forall(_ >= 1.0 / 9 - 1e-12))
    assert(nrp9.weights.wf.distinct.length > 1)
  }

  test("reweighting moves connection-strength sums toward degrees (Eq. 5)") {
    val plain = ApproxPPR(g9, kPrime = 4, alpha = 0.15, l1 = 20, eps = 0.2)
    def degreeError(x: Array[Array[Double]], y: Array[Array[Double]]): Double = {
      var err = 0.0
      for (u <- 0 until 9) {
        var sOut = 0.0
        for (v <- 0 until 9 if v != u) sOut += Dense.dot(x(u), y(v))
        err += math.pow(sOut - g9.outDeg(u), 2)
        var sIn = 0.0
        for (v <- 0 until 9 if v != u) sIn += Dense.dot(x(v), y(u))
        err += math.pow(sIn - g9.inDeg(u), 2)
      }
      err
    }
    val before = degreeError(plain.x, plain.y)           // raw PPR sums ≈ 1 ≪ degree
    val after = degreeError(nrp9.x, nrp9.y)
    assert(after < before, s"degree-matching error should drop: $before -> $after")
  }

  test("l2 = 0 reduces to ApproxPPR scaled by the initial weights") {
    val plain = ApproxPPR(g9, kPrime = 4, alpha = 0.15, l1 = 20, eps = 0.2)
    val r0 = NRP.reweight(g9, plain.x, plain.y, NRP.Params(k = 8, l2 = 0))
    for (v <- 0 until 9; j <- 0 until 4) {
      assert(math.abs(r0.x(v)(j) - plain.x(v)(j) * math.max(g9.outDeg(v), 1.0 / 9)) < 1e-12)
      assert(math.abs(r0.y(v)(j) - plain.y(v)(j)) < 1e-12)
    }
  }

  test("empty (n = 0) and edgeless graphs give finite n×k′ embeddings") {
    for (n <- Seq(0, 4)) {
      val g = repro.graph.Graph.fromPairs(n, Array.empty, Array.empty, 0, directed = true)
      val r = NRP(g, NRP.Params(k = 8))
      for (m <- Seq(r.x, r.y))
        assert(m.length == n && m.forall(x => x.length == 4 && x.forall(java.lang.Double.isFinite)), s"n = $n")
      assert(r.weights.wf.length == n && r.weights.wb.length == n, s"n = $n")
    }
  }

  test("NRP runs on a directed DC-SBM graph and stays finite") {
    val g = Generators.dcsbm(spark, n = 120, avgDeg = 4, numLabels = 3, seed = 41).graph
    val r = NRP(g, NRP.Params(k = 16, l1 = 10, l2 = 3))
    assert(r.x.length == 120)
    assert(r.x.flatten.forall(v => !v.isNaN && !v.isInfinite))
    assert(r.y.flatten.forall(v => !v.isNaN && !v.isInfinite))
  }
}
