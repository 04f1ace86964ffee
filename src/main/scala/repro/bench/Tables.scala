package repro.bench

import org.apache.spark.sql.SparkSession
import repro.baselines.Emb
import repro.core.{ApproxPPR, NRP}
import repro.eval.{GraphReconstruction, LinkPrediction, NodeClassification}
import repro.graph.{Generators, Graph}
import repro.ppr.ExactPPR

/** One runner per reproduced exhibit (see DESIGN.md §4 / EXPERIMENTS.md),
  * run by `Jobs tN`. Each runner prints the table it regenerates, then
  * checks the exhibit's gate: a pure function of the runner's rows that
  * throws `IllegalStateException` when the reproduced shape does not hold,
  * so a failed gate makes `Jobs tN` exit non-zero.
  */
object Tables {

  /** Lower Spark shuffle width for the bench-scale iterative jobs. */
  def tuneForBench(spark: SparkSession): Unit =
    spark.conf.set("spark.sql.shuffle.partitions", "16")

  /** One cell of a pivot table: (dataset, method, column, value). */
  type Row[C] = (String, String, C, Double)

  /** The seed of every method's embedding. */
  private val seed = 20L

  /** Fails an exhibit's gate. */
  private def gate(ok: Boolean, what: => String): Unit =
    if (!ok) throw new IllegalStateException(s"gate failed: $what")

  /** The value of row (ds, method, c); a missing row fails the gate. */
  private def at[C](rows: Seq[Row[C]], ds: String, method: String, c: C): Double =
    rows.collectFirst { case (`ds`, `method`, `c`, v) => v }
      .getOrElse(throw new IllegalStateException(s"gate failed: no $method row for $ds at $c"))

  /** Gates that NRP's value at column c is above `floor` on each dataset. */
  private def nrpAbove[C](exhibit: String, rows: Seq[Row[C]], datasets: Seq[String], c: C, floor: Double): Unit =
    for (ds <- datasets) {
      val v = at(rows, ds, "NRP", c)
      gate(v > floor, s"$exhibit $ds NRP at $c = $v, not above $floor")
    }

  private val small = Seq("wiki-lite", "blog-lite")

  /** Print one table per dataset from pivot rows: a row per method in
    * [[Methods.all]] order, a column per distinct column key in ascending
    * order, "-" where a method has no value.
    */
  private[bench] def printPivot[C: Ordering](title: String, rows: Seq[Row[C]])(header: C => String): Unit =
    rows.groupBy(_._1).toSeq.sortBy(_._1).foreach { case (ds, rs) =>
      val cols = rs.map(_._3).distinct.sorted
      val table = rs.groupBy(_._2).toSeq
        .sortBy { case (m, _) => Methods.all.indexWhere(_.name == m) }
        .map { case (m, mrs) =>
          m +: cols.map(c => mrs.find(_._3 == c).map(r => Harness.f3(r._4)).getOrElse("-"))
        }
      Harness.printTable(s"$title - $ds", "method" +: cols.map(header), table)
    }

  /** Prints `rows` with [[printPivot]], then checks the exhibit's gate on them. */
  private def report[C: Ordering](title: String, rows: Seq[Row[C]])(header: C => String)
                                 (check: Seq[Row[C]] => Unit): Seq[Row[C]] = {
    printPivot(title, rows)(header)
    check(rows)
    rows
  }

  // ---- T1: Table 1 — PPR rows on the Fig.-1 example graph --------------

  /** Paper Table 1 (α = 0.15). The v₇ row is reproduced with the caveat
    * documented in Generators.example9 (apparent typo in the original).
    */
  val table1Paper: Map[String, Seq[Double]] = Map(
    "v2" -> Seq(0.15, 0.269, 0.188, 0.118, 0.17, 0.048, 0.029, 0.019, 0.008),
    "v4" -> Seq(0.15, 0.118, 0.188, 0.269, 0.17, 0.048, 0.029, 0.019, 0.008),
    "v7" -> Seq(0.036, 0.043, 0.056, 0.043, 0.093, 0.137, 0.29, 0.187, 0.12),
    "v9" -> Seq(0.02, 0.024, 0.031, 0.024, 0.056, 0.083, 0.168, 0.311, 0.282))

  def table1(spark: SparkSession): Map[String, Seq[Double]] = {
    val g = Generators.example9(spark)
    val pi = ExactPPR.ppr(g, alpha = 0.15)
    val rows = Map("v2" -> pi(1), "v4" -> pi(3), "v7" -> pi(6), "v9" -> pi(8))
      .view.mapValues(_.toSeq).toMap
    Harness.printTable("T1 (paper Table 1): PPR rows, alpha=0.15",
      "source" +: (1 to 9).map(i => s"v$i") :+ "which",
      Seq("v2", "v4", "v7", "v9").flatMap { s =>
        Seq(s +: rows(s).map(Harness.f3) :+ "ours",
            s +: table1Paper(s).map(Harness.f3) :+ "paper")
      })
    checkTable1(rows)
    rows
  }

  /** T1 gate: the v2, v4 and v9 rows match the paper to ±0.0015. */
  def checkTable1(rows: Map[String, Seq[Double]]): Unit =
    for (s <- Seq("v2", "v4", "v9"); j <- 0 until 9)
      gate(math.abs(rows(s)(j) - table1Paper(s)(j)) <= 0.0015,
        s"T1 $s col ${j + 1} = ${rows(s)(j)}, paper ${table1Paper(s)(j)}")

  // ---- T3: Table 3 — dataset statistics --------------------------------

  def datasetStats(spark: SparkSession): Seq[Seq[String]] = {
    val all = Harness.smallDatasets(spark) ++ Harness.mediumDatasets(spark) ++
      Seq("twitter-lite" -> Generators.twitterLite(spark))
    val paper = Map(
      "wiki-lite" -> "Wiki: 4.78K/184.81K directed 40",
      "blog-lite" -> "BlogCatalog: 10.31K/333.98K undirected 39",
      "youtube-lite" -> "Youtube: 1.13M/2.99M undirected 47",
      "tweibo-lite" -> "TWeibo: 2.32M/50.65M directed 100",
      "twitter-lite" -> "Twitter: 41.6M/1.2B directed -")
    val rows = all.map { case (name, lg) =>
      Seq(name, lg.graph.n.toString, lg.graph.m.toString,
        if (lg.graph.directed) "directed" else "undirected",
        lg.numLabels.toString, paper(name))
    }
    Harness.printTable("T3 (paper Table 3): dataset statistics (ours vs the graphs they substitute)",
      Seq("dataset", "n", "m(directed edges)", "type", "#labels", "substitutes"), rows)
    checkDatasetStats(rows)
    rows
  }

  /** T3 gate: one row per dataset, five in all. */
  def checkDatasetStats(rows: Seq[Seq[String]]): Unit =
    gate(rows.size == 5, s"T3 has ${rows.size} rows, not 5")

  // ---- T4: Fig. 4 — link prediction AUC vs k ---------------------------

  def linkPrediction(spark: SparkSession): Seq[Row[Int]] = {
    def runOn(dsName: String, g: Graph, methods: Seq[Methods.Spec], ks: Seq[Int]): Seq[Row[Int]] = {
      val s = LinkPrediction.split(g, 0.3, seed = 1)
      for (m <- methods; k <- ks) yield {
        val auc = LinkPrediction.auc(m.run(s.train, k, seed), s)
        Console.err.println(s"[T4] $dsName ${m.name} k=$k auc=${Harness.f3(auc)}")
        (dsName, m.name, k, auc)
      }
    }
    val rows = Harness.smallDatasets(spark).flatMap { case (name, lg) =>
      runOn(name, lg.graph, Methods.all, Seq(16, 32, 64))
    } ++ Harness.mediumDatasets(spark).flatMap { case (name, lg) =>
      // medium graphs: the scalable subset only (as the paper excludes
      // non-scaling methods on its large graphs)
      runOn(name, lg.graph, Seq(Methods.nrp, Methods.arope, Methods.randne), Seq(64))
    }
    report("T4 (Fig. 4): link prediction AUC vs k", rows)(k => s"AUC@k=$k")(checkLinkPrediction)
  }

  /** T4 gate (Fig. 4 shape): on wiki-lite and blog-lite at k = 64, NRP's
    * AUC is above 0.70 and does not trail ApproxPPR's by more than 0.01.
    */
  def checkLinkPrediction(rows: Seq[Row[Int]]): Unit = {
    nrpAbove("T4", rows, small, 64, 0.70)
    for (ds <- small) {
      val (nrp, ppr) = (at(rows, ds, "NRP", 64), at(rows, ds, "ApproxPPR", 64))
      gate(nrp >= ppr - 0.01, s"T4 $ds NRP AUC@64 = $nrp trails ApproxPPR's $ppr")
    }
  }

  // ---- T5: Fig. 5 — graph reconstruction precision@K -------------------

  def reconstruction(spark: SparkSession): Seq[Row[Int]] = {
    val kTop = Seq(10, 100, 1000, 10000)
    val rows = Harness.smallDatasets(spark).flatMap { case (name, lg) => Methods.all.flatMap { m =>
      val prec = GraphReconstruction.precisionAtK(m.run(lg.graph, 64, seed), lg.graph, kTop)
      Console.err.println(s"[T5] $name ${m.name} " +
        kTop.map(kk => s"p@$kk=${Harness.f3(prec(kk))}").mkString(" "))
      kTop.map(kk => (name, m.name, kk, prec(kk)))
    }}
    report("T5 (Fig. 5): graph reconstruction precision@K (k=64)", rows)(kk => s"prec@$kk")(checkReconstruction)
  }

  /** T5 gate: NRP's precision@100 is above 0.5 on wiki-lite and blog-lite. */
  def checkReconstruction(rows: Seq[Row[Int]]): Unit = nrpAbove("T5", rows, small, 100, 0.5)

  // ---- T6: Fig. 6 — node classification Micro-F1 vs train fraction -----

  def classification(spark: SparkSession): Seq[Row[Double]] = {
    val rows = Harness.smallDatasets(spark).flatMap { case (name, lg) => Methods.all.flatMap { m =>
      val emb = m.run(lg.graph, 64, seed)
      Console.err.println(s"[T6] $name ${m.name} done")
      Seq(0.1, 0.5, 0.9).map(f =>
        (name, m.name, f, NodeClassification.evaluate(emb, lg.labels, lg.numLabels, f)._1))
    }}
    report("T6 (Fig. 6): node classification Micro-F1 (k=64)", rows)(f => s"train=$f")(checkClassification)
  }

  /** T6 gate: NRP's Micro-F1 at train fraction 0.5 beats the 1/8 majority
    * rate by 0.1 on wiki-lite and blog-lite.
    */
  def checkClassification(rows: Seq[Row[Double]]): Unit = nrpAbove("T6", rows, small, 0.5, 1.0 / 8 + 0.1)

  // ---- T7: Fig. 7 — running time vs k ----------------------------------

  def efficiency(spark: SparkSession): Seq[Row[Int]] = {
    def time(ds: String, g: Graph, m: Methods.Spec, k: Int): Row[Int] = {
      val (_, secs) = Harness.timed(m.run(g, k, seed))
      Console.err.println(s"[T7] $ds ${m.name} k=$k ${Harness.f1(secs)}s")
      (ds, m.name, k, secs)
    }
    val (wikiName, wiki) = Harness.smallDatasets(spark).head
    // k = 128, the paper's and NRP.Params' default, for the PPR methods only;
    // the pivot prints "-" in the other methods' k = 128 cells.
    val wikiRows = (for (m <- Methods.all; k <- Seq(16, 32, 64)) yield time(wikiName, wiki.graph, m, k)) ++
      Seq(Methods.nrp, Methods.approxPpr).map(time(wikiName, wiki.graph, _, 128))
    val big = Generators.twitterLite(spark).graph
    val rows = wikiRows ++ Methods.largeSet.map(time("twitter-lite", big, _, 64))
    report("T7 (Fig. 7): embedding construction time (seconds) vs k", rows)(k => s"sec@k=$k")(checkEfficiency)
  }

  /** T7 gate: NRP ran on twitter-lite. */
  def checkEfficiency(rows: Seq[Row[Int]]): Unit =
    gate(rows.exists(r => r._1 == "twitter-lite" && r._2 == "NRP"), "T7 has no twitter-lite NRP row")

  // ---- T8 + T11: Fig. 8 / Fig. 11 — parameter sweeps (AUC and time) ----

  /** Runs and times every sweep point once at k = 64; returns the T8 rows
    * (dataset/param, "NRP", value, AUC) and the T11 rows with the seconds.
    */
  def paramSweeps(spark: SparkSession): (Seq[Row[Double]], Seq[Row[Double]]) = {
    val params = NRP.Params(k = 64)
    val points = Harness.smallDatasets(spark).zipWithIndex.flatMap { case ((name, lg), dsIdx) =>
      val s = LinkPrediction.split(lg.graph, 0.3, seed = 1)
      /** Time one embedding run end to end: (AUC row, seconds row). */
      def point(param: String, value: Double)(run: => Emb): (Row[Double], Row[Double]) = {
        val (emb, secs) = Harness.timed(run)
        ((s"$name/$param", "NRP", value, LinkPrediction.auc(emb, s)), (s"$name/$param", "NRP", value, secs))
      }
      def nrpEmb(r: NRP.Result): Emb = Emb(r.x, r.y)
      def approx(l1: Int) = ApproxPPR(s.train, params.k / 2, params.alpha, l1, params.eps, params.seed)

      // α and ε sweeps on the first dataset only.
      val alphaEps = if (dsIdx > 0) Nil else
        Seq(0.1, 0.15, 0.5, 0.9).map(a => point("alpha", a)(nrpEmb(NRP(s.train, params.copy(alpha = a))))) ++
          Seq(0.1, 0.2, 0.9).map(e => point("eps", e)(nrpEmb(NRP(s.train, params.copy(eps = e)))))
      val l1s = Seq(1, 2, 5, 10, 20, 30).map(l1 => point("l1", l1) {
        val e = approx(l1)
        nrpEmb(NRP.reweight(s.train, e.x, e.y, params))
      })
      // ℓ₂ = 0 is reweighting disabled: the plain ApproxPPR embedding, as
      // Fig. 8d reads it.
      val l2s = Seq(0, 1, 2, 5, 10, 20).map(l2 => point("l2", l2) {
        val e = approx(params.l1)
        if (l2 == 0) Emb(e.x, e.y) else nrpEmb(NRP.reweight(s.train, e.x, e.y, params.copy(l2 = l2)))
      })
      Console.err.println(s"[T8] $name sweeps done")
      alphaEps ++ l1s ++ l2s
    }
    val (aucs, times) = points.unzip
    printPivot("T8 (Fig. 8): NRP link-prediction AUC vs parameters", aucs)(_.toString)
    printPivot("T11 (Fig. 11): NRP running time (seconds) vs parameters", times)(_.toString)
    checkParamSweeps(aucs)
    (aucs, times)
  }

  /** T8 gate on wiki-lite and blog-lite: reweighting does not hurt
    * (Fig. 8d: AUC at ℓ₂ = 10 ≥ AUC at ℓ₂ = 0 − 0.01), and ℓ₁ = 20 beats
    * ℓ₁ = 1 (Fig. 8c).
    */
  def checkParamSweeps(aucRows: Seq[Row[Double]]): Unit =
    for (ds <- small) {
      val (auc0, auc10) = (at(aucRows, s"$ds/l2", "NRP", 0.0), at(aucRows, s"$ds/l2", "NRP", 10.0))
      gate(auc10 >= auc0 - 0.01, s"T8 $ds: AUC at l2=10 ($auc10) vs l2=0 ($auc0)")
      val (auc1, auc20) = (at(aucRows, s"$ds/l1", "NRP", 1.0), at(aucRows, s"$ds/l1", "NRP", 20.0))
      gate(auc20 > auc1, s"T8 $ds: AUC at l1=20 ($auc20) does not beat l1=1 ($auc1)")
    }

  // ---- T9: Fig. 9 / Table 4 — evolving-graph link prediction -----------

  def evolving(spark: SparkSession): Seq[Row[String]] = {
    val datasets = Seq("vk-lite" -> Generators.vkLite(spark), "digg-lite" -> Generators.diggLite(spark))
    val rows = datasets.flatMap { case (name, ev) =>
      val pos = ev.newEdges
      val split = LinkPrediction.Split(ev.old, pos, LinkPrediction.sampleNonEdges(ev.full, pos.length, seed = 5))
      Methods.mediumSet.map { m =>
        val auc = LinkPrediction.auc(m.run(ev.old, 64, seed), split)
        Console.err.println(s"[T9] $name ${m.name} auc=${Harness.f3(auc)}")
        (name, m.name, "AUC", auc)
      }
    }
    report("T9 (Fig. 9 / Table 4): evolving-graph link prediction AUC (k=64)", rows)(identity)(checkEvolving)
  }

  /** T9 gate: NRP's AUC is above 0.55 on vk-lite and digg-lite. */
  def checkEvolving(rows: Seq[Row[String]]): Unit = nrpAbove("T9", rows, Seq("vk-lite", "digg-lite"), "AUC", 0.55)

  // ---- T10: Fig. 10 — scalability on Erdős–Rényi graphs ----------------

  /** Rows (vary-n, NRP, n, seconds) at m = 2·10⁵ and (vary-m, NRP, m, seconds) at n = 2·10⁴. */
  def scalability(spark: SparkSession): Seq[Row[Long]] = {
    def point(kind: String, x: Long, n: Long, m: Long, graphSeed: Long): Row[Long] = {
      val g = Generators.erdosRenyi(spark, n, m, directed = true, seed = graphSeed)
      val (_, secs) = Harness.timed(NRP(g, NRP.Params(k = 32)))
      Console.err.println(s"[T10] n=$n m=$m ${Harness.f1(secs)}s")
      (kind, "NRP", x, secs)
    }
    val rows = Seq(10000L, 20000L, 40000L).map(n => point("vary-n", n, n, 200000, 70 + n)) ++
      Seq(100000L, 200000L, 400000L).map(m => point("vary-m", m, 20000, m, 80 + m))
    report("T10 (Fig. 10): NRP running time (seconds) on ER graphs, vary-n at m=200000, " +
      "vary-m at n=20000 (k=32)", rows)(_.toString)(checkScalability)
  }

  /** T10 gate: growth in m is at most linear-ish, not quadratic — the time
    * at the largest m stays under 16× the time at the smallest (floored at
    * 1 s).
    */
  def checkScalability(rows: Seq[Row[Long]]): Unit = {
    val varyM = rows.filter(_._1 == "vary-m").sortBy(_._3)
    val (first, last) = (varyM.head, varyM.last)
    gate(last._4 < 16 * math.max(first._4, 1.0),
      s"T10 t(m=${last._3}) = ${last._4} vs t(m=${first._3}) = ${first._4}")
  }
}
