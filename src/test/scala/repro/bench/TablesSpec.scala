package repro.bench

import org.scalatest.funsuite.AnyFunSuite
import repro.bench.Tables.Row

/** Every exhibit's gate passes rows of the reproduced shape and throws on
  * rows that break it.
  */
class TablesSpec extends AnyFunSuite {

  private val small = Seq("wiki-lite", "blog-lite")

  private def fails(check: => Unit, clue: String): Unit =
    withClue(clue)(intercept[IllegalStateException](check))

  /** `rows` with the value of row (ds, method, c) replaced by `v`. */
  private def set[C](rows: Seq[Row[C]], ds: String, method: String, c: C, v: Double): Seq[Row[C]] =
    rows.map(r => if (r._1 == ds && r._2 == method && r._3 == c) r.copy(_4 = v) else r)

  test("T1 gate: the v2, v4 and v9 rows lie within ±0.0015 of the paper") {
    val paper = Tables.table1Paper
    Tables.checkTable1(paper.updated("v7", paper("v7").map(_ + 0.1)))
    for (s <- Seq("v2", "v4", "v9"); (d, j) <- Seq((0.0016, 0), (-0.0016, 8)))
      fails(Tables.checkTable1(paper.updated(s, paper(s).updated(j, paper(s)(j) + d))), s"$s col $j")
  }

  test("T3 gate: five dataset rows") {
    val row = Seq("wiki-lite", "3000", "39053", "directed", "8", "Wiki")
    Tables.checkDatasetStats(Seq.fill(5)(row))
    for (k <- Seq(4, 6)) fails(Tables.checkDatasetStats(Seq.fill(k)(row)), s"$k rows")
  }

  test("T4 gate: NRP AUC@64 > 0.70 and not below ApproxPPR's − 0.01") {
    val ok: Seq[Row[Int]] = ("youtube-lite", "NRP", 64, 0.5) +: small.flatMap(ds =>
      Seq((ds, "NRP", 64, 0.9), (ds, "ApproxPPR", 64, 0.905), (ds, "NRP", 16, 0.5)))
    Tables.checkLinkPrediction(ok)
    for (ds <- small) {
      val low = set(set(ok, ds, "NRP", 64, 0.70), ds, "ApproxPPR", 64, 0.6)
      fails(Tables.checkLinkPrediction(low), s"$ds NRP 0.70")
      fails(Tables.checkLinkPrediction(set(ok, ds, "ApproxPPR", 64, 0.92)), s"$ds ApproxPPR ahead")
      val missing = ok.filterNot(r => r._1 == ds && r._2 == "NRP" && r._3 == 64)
      fails(Tables.checkLinkPrediction(missing), s"$ds no row")
    }
  }

  test("T5 gate: NRP prec@100 > 0.5") {
    val ok: Seq[Row[Int]] = small.flatMap(ds => Seq((ds, "NRP", 100, 0.6), (ds, "NRP", 10000, 0.1)))
    Tables.checkReconstruction(ok)
    for (ds <- small) fails(Tables.checkReconstruction(set(ok, ds, "NRP", 100, 0.5)), ds)
  }

  test("T6 gate: NRP micro-F1 at train fraction 0.5 > 1/8 + 0.1") {
    val ok: Seq[Row[Double]] = small.flatMap(ds => Seq((ds, "NRP", 0.5, 0.3), (ds, "NRP", 0.1, 0.1)))
    Tables.checkClassification(ok)
    for (ds <- small) fails(Tables.checkClassification(set(ok, ds, "NRP", 0.5, 0.2)), ds)
  }

  test("pivot printer shows \"-\" where a method has no value in a column") {
    val rows: Seq[Row[Int]] = Seq(("wiki-lite", "NRP", 64, 1.0), ("wiki-lite", "NRP", 128, 2.0),
      ("wiki-lite", "AROPE", 64, 3.0))
    val out = new java.io.ByteArrayOutputStream
    Console.withOut(out)(Tables.printPivot("T7", rows)(k => s"sec@k=$k"))
    val lines = out.toString("UTF-8").linesIterator.toSeq
    assert(lines.head == "### T7 - wiki-lite")
    def cells(m: String) = lines.find(_.startsWith(s"| $m ")).get.split('|').map(_.trim).filter(_.nonEmpty).toSeq
    assert(cells("method") == Seq("method", "sec@k=64", "sec@k=128"))
    assert(cells("NRP") == Seq("NRP", "1.000", "2.000"))
    assert(cells("AROPE") == Seq("AROPE", "3.000", "-"))
  }

  test("T7 gate: a twitter-lite NRP row exists") {
    val ok: Seq[Row[Int]] = Seq(("wiki-lite", "NRP", 64, 1.0), ("twitter-lite", "NRP", 64, 9.0),
      ("twitter-lite", "RandNE", 64, 1.0))
    Tables.checkEfficiency(ok)
    fails(Tables.checkEfficiency(ok.filterNot(r => r._1 == "twitter-lite" && r._2 == "NRP")), "no row")
  }

  test("T8 gate: AUC at l2=10 ≥ AUC at l2=0 − 0.01, and at l1=20 > at l1=1") {
    val ok: Seq[Row[Double]] = small.flatMap(ds => Seq(
      (s"$ds/l2", "NRP", 0.0, 0.8), (s"$ds/l2", "NRP", 10.0, 0.795),
      (s"$ds/l1", "NRP", 1.0, 0.6), (s"$ds/l1", "NRP", 20.0, 0.9)))
    Tables.checkParamSweeps(ok)
    for (ds <- small) {
      fails(Tables.checkParamSweeps(set(ok, s"$ds/l2", "NRP", 10.0, 0.78)), s"$ds l2")
      fails(Tables.checkParamSweeps(set(ok, s"$ds/l1", "NRP", 20.0, 0.6)), s"$ds l1")
    }
  }

  test("T9 gate: NRP AUC > 0.55 on vk-lite and digg-lite") {
    val dss = Seq("vk-lite", "digg-lite")
    val ok: Seq[Row[String]] = dss.flatMap(ds => Seq((ds, "NRP", "AUC", 0.6), (ds, "APP", "AUC", 0.2)))
    Tables.checkEvolving(ok)
    for (ds <- dss) fails(Tables.checkEvolving(set(ok, ds, "NRP", "AUC", 0.55)), ds)
  }

  test("T10 gate: time at the largest m < 16·max(time at the smallest m, 1 s)") {
    val ok: Seq[Row[Long]] = Seq(("vary-n", "NRP", 10000L, 1.0), ("vary-n", "NRP", 40000L, 100.0),
      ("vary-m", "NRP", 100000L, 2.0), ("vary-m", "NRP", 200000L, 50.0), ("vary-m", "NRP", 400000L, 31.9))
    Tables.checkScalability(ok)
    fails(Tables.checkScalability(set(ok, "vary-m", "NRP", 400000L, 32.0)), "32 s at 2 s")
    val fast = set(ok, "vary-m", "NRP", 100000L, 0.5)
    Tables.checkScalability(set(fast, "vary-m", "NRP", 400000L, 15.9))
    fails(Tables.checkScalability(set(fast, "vary-m", "NRP", 400000L, 16.0)), "16 s at 0.5 s")
  }
}
