package repro.integration

import repro.SparkSpec
import repro.baselines.{APPLite, Emb}
import repro.bench.Methods
import repro.core.{ApproxPPR, NRP}
import repro.eval.{GraphReconstruction, LinkPrediction, NodeClassification}
import repro.graph.{Generators, Graph}

/** Integration tests: the paper's qualitative findings at unit-test scale
  * — the directional claims the benches then quantify at bench scale.
  */
class EndToEndSpec extends SparkSpec {

  private lazy val sbm = Generators.dcsbm(spark, n = 400, avgDeg = 8, numLabels = 4,
    directed = true, seed = 81)
  private lazy val split = LinkPrediction.split(sbm.graph, 0.3, seed = 1)
  private lazy val nrpEmb: Emb = {
    val r = NRP(split.train, NRP.Params(k = 32, l1 = 15, l2 = 8))
    Emb(r.x, r.y)
  }
  private lazy val pprEmb: Emb = {
    val e = ApproxPPR(split.train, kPrime = 16, alpha = 0.15, l1 = 15, eps = 0.2)
    Emb(e.x, e.y)
  }

  test("link prediction: both PPR methods beat random, NRP >= ApproxPPR") {
    val aucNrp = LinkPrediction.auc(nrpEmb, split)
    val aucPpr = LinkPrediction.auc(pprEmb, split)
    assert(aucPpr > 0.6, s"ApproxPPR AUC $aucPpr should beat random")
    assert(aucNrp > 0.6, s"NRP AUC $aucNrp should beat random")
    assert(aucNrp >= aucPpr - 0.02,
      s"NRP ($aucNrp) should not trail ApproxPPR ($aucPpr) — Fig. 4 shape")
  }

  test("reweighting improves link prediction over l2=0 (Fig. 8d shape)") {
    val base = ApproxPPR(split.train, kPrime = 16, alpha = 0.15, l1 = 15, eps = 0.2)
    val r8 = NRP.reweight(split.train, base.x, base.y, NRP.Params(k = 32, l2 = 8))
    val auc0 = LinkPrediction.auc(Emb(base.x, base.y), split)
    val auc8 = LinkPrediction.auc(Emb(r8.x, r8.y), split)
    assert(auc8 > auc0, s"l2=8 AUC $auc8 should beat l2=0 AUC $auc0")
  }

  test("graph reconstruction: NRP precision@100 far exceeds the random rate") {
    val r = NRP(sbm.graph, NRP.Params(k = 32, l1 = 15, l2 = 8))
    val prec = GraphReconstruction.precisionAtK(Emb(r.x, r.y), sbm.graph, Seq(100))
    val randomRate = sbm.graph.m.toDouble / (sbm.graph.n.toDouble * (sbm.graph.n - 1))
    assert(prec(100) > 10 * randomRate && prec(100) > 0.3,
      s"prec@100 = ${prec(100)}, random rate $randomRate")
  }

  test("node classification: NRP features beat the majority-class baseline") {
    val r = NRP(sbm.graph, NRP.Params(k = 32, l1 = 15, l2 = 8))
    val (micro, _) = NodeClassification.evaluate(Emb(r.x, r.y), sbm.labels, sbm.numLabels, 0.5)
    val majority = 1.0 / sbm.numLabels // balanced labels
    assert(micro > majority + 0.1, s"micro-F1 $micro vs majority $majority")
  }

  test("embeddings are bit-identical however the edge DataFrame is partitioned") {
    import spark.implicits._
    val edges = Generators.dcsbm(spark, n = 120, avgDeg = 4, numLabels = 3, seed = 41).graph
      .edges.as[(Long, Long)].collect().toSeq
    def run(partitions: Int): Seq[Array[Array[Double]]] = {
      val g = Graph.fromEdges(edges.toDF("src", "dst").repartition(partitions), 120, directed = true)
      val ppr = ApproxPPR(g, kPrime = 8, alpha = 0.15, l1 = 10, eps = 0.2)
      val nrp = NRP(g, NRP.Params(k = 16, l1 = 10, l2 = 3))
      val app = APPLite(g, k = 16, samplesPerNode = 20)
      Seq(ppr.x, ppr.y, nrp.x, nrp.y, app.x, app.y)
    }
    for ((a, b) <- run(1).zip(run(7)))
      assert(a.length == b.length && a.indices.forall(i => java.util.Arrays.equals(a(i), b(i))))
  }

  test("method registry: every method produces usable embeddings on a tiny graph") {
    val g = Generators.dcsbm(spark, n = 60, avgDeg = 4, numLabels = 3, seed = 91).graph
    for (m <- Methods.all) {
      val emb = m.run(g, 8, 20L)
      assert(emb.x.length == 60, s"${m.name} row count")
      assert(emb.x.flatten.forall(v => !v.isNaN && !v.isInfinite), s"${m.name} finite")
      val auc = {
        val s = LinkPrediction.split(g, 0.3, seed = 2)
        LinkPrediction.auc(emb, s)
      }
      assert(auc >= 0.0 && auc <= 1.0, s"${m.name} auc")
    }
  }
}
