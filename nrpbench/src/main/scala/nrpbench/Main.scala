package nrpbench

import java.nio.charset.StandardCharsets
import java.nio.file.{Files, Paths}

import scala.collection.mutable.ArrayBuffer

import org.apache.spark.sql.SparkSession
import org.json4s.DefaultFormats
import org.json4s.jackson.Serialization
import repro.baselines.Emb
import repro.bench.Tables
import repro.core.{ApproxPPR, NRP}
import repro.eval.{GraphReconstruction, LinkPrediction, NodeClassification}
import repro.graph.Generators
import repro.graph.Generators.LabeledGraph
import repro.jobs.Jobs
import repro.svd.BKSVD

/** Runs one workload and writes a JSON record of raw samples, quality
  * figures, failures, environment and (when traced) spans; `run.py` turns
  * the record into metrics.
  *
  * Usage: `Main --workload <name> --seed <n> --seconds <s> --trace <0|1> --out <file>`
  *
  * Untraced: set up three times (start a Spark session, generate, ingest,
  * link-prediction split), then make the first embedding — ApproxPPR then
  * NRP.reweight, which is what NRP.apply runs — and then passes until
  * `seconds` have passed and at least [[Main.minPasses]] have run. A pass reweights that fixed ApproxPPR
  * output again and evaluates the result (link prediction, graph
  * reconstruction, node classification), as a parameter study does.
  *
  * Traced: set up once, then call each layer's entry point inside a span:
  * NRP.apply, BKSVD, ApproxPPR at ℓ₁ and at ℓ₁ = 1, then passes on the
  * ApproxPPR output, alternately untraced and traced.
  *
  * Every set-up, embedding, layer call and pass is one attempt. An
  * exception or a failed check fails that attempt; the run goes on and
  * reports it.
  */
object Main {

  final case class Args(workload: String, seed: Option[Long], seconds: Double, trace: Boolean, out: String)

  final case class Prepared(lg: LabeledGraph, split: LinkPrediction.Split)

  /** Fewest passes a run makes, however long they take. */
  val minPasses = 6

  final class CheckFailed(msg: String) extends RuntimeException(msg)

  def check(ok: Boolean, what: => String): Unit = if (!ok) throw new CheckFailed(what)

  /** Attempts and the failures among them. */
  final class Attempts {
    var attempted = 0
    val failures = ArrayBuffer.empty[String]

    def apply[A](name: String)(body: => A): Option[A] = {
      attempted += 1
      try Some(body)
      catch {
        case e: Exception =>
          failures += s"$name: ${e.getClass.getSimpleName}: ${e.getMessage}"
          Console.err.println(s"[nrpbench] FAILED $name: $e")
          None
      }
    }
  }

  private def secondsSince(t0: Long): Double = (System.nanoTime() - t0) / 1e9

  private def timed[A](body: => A): (A, Double) = {
    val t0 = System.nanoTime()
    val r = body
    (r, secondsSince(t0))
  }

  def main(argv: Array[String]): Unit = {
    val args = parse(argv)
    val w = Workload.byName(args.workload)
    val seed = args.seed.getOrElse(w.defaultSeed)
    Jvm.gcSeconds // installs the GC listener before any work
    val record =
      try run(w, seed, args)
      finally SparkSession.getActiveSession.foreach(_.stop())
    Files.write(Paths.get(args.out), Serialization.write(record)(DefaultFormats).getBytes(StandardCharsets.UTF_8))
  }

  /** The program's own session, started afresh: any earlier one is stopped. */
  def session(w: Workload): SparkSession = {
    SparkSession.getActiveSession.foreach(_.stop())
    val s = Jobs.session(s"nrpbench-${w.name}")
    Tables.tuneForBench(s)
    s
  }

  def run(w: Workload, seed: Long, args: Args): Map[String, Any] = {
    val off = new Recorder(None)
    var rec = off
    val attempts = new Attempts
    val p = w.params

    /** One set-up: a new session, then the graph and its split. The traced
      * run registers its recorder's listener on the new session first.
      */
    def setup(): (SparkSession, Prepared) = {
      val spark = session(w)
      if (args.trace) rec = new Recorder(Some(spark.sparkContext))
      (spark, rec.span("setup")(prepare(spark)))
    }

    def prepare(spark: SparkSession): Prepared = {
      val lg = rec.span("graph.generate")(
        Generators.dcsbm(spark, w.n, w.avgDeg, w.labels, directed = w.directed, seed = seed))
      val g = lg.graph
      rec.span("graph.ingest") { g.m; g.outDeg; g.inDeg }
      val s = rec.span("eval.split") {
        val s = LinkPrediction.split(g, 0.3, seed = 1)
        s.train.m; s.train.outDeg; s.train.inDeg
        s
      }
      check(g.m > 0 && s.train.m > 0 && s.train.m < g.m, s"degenerate split: m=${g.m} train=${s.train.m}")
      Prepared(lg, s)
    }

    val setupS = ArrayBuffer.empty[Double]
    var prepared: Option[Prepared] = None
    var env = Map.empty[String, Any]
    for (i <- 1 to (if (args.trace) 1 else 3)) {
      prepared = None
      attempts(s"setup $i")(timed(setup())).foreach { case ((spark, prep), secs) =>
        prepared = Some(prep)
        env = environment(spark, w, seed, prep)
        setupS += secs
        Jvm.sampleLiveHeap()
      }
    }

    val passes = ArrayBuffer.empty[Map[String, Any]]
    var firstEmbedS: Option[Double] = None
    prepared.foreach { prep =>
      val train = prep.split.train
      val n = train.n.toInt
      var reference: Option[Seq[Double]] = None

      def approxPPR(l1: Int): ApproxPPR.LocalEmb = {
        val e = rec.span(if (l1 == p.l1) "core.approxppr" else "core.approxppr_l1_1")(
          ApproxPPR(train, w.kPrime, p.alpha, l1, p.eps, p.seed).local)
        checkShape(e.x, n, w.kPrime, "ApproxPPR x"); checkShape(e.y, n, w.kPrime, "ApproxPPR y")
        e
      }

      /** One pass: reweight the fixed ApproxPPR output, then evaluate. */
      def pass(index: Int, base: ApproxPPR.LocalEmb, r: Recorder): Map[String, Any] = r.span("pass") {
        val t0 = System.nanoTime()
        val res = r.span("core.reweight")(NRP.reweight(train, base.x, base.y, p))
        val reweightS = secondsSince(t0)
        checkResult(res, n, w.kPrime)
        val emb = Emb(res.x, res.y)
        val t1 = System.nanoTime()
        val auc = r.span("eval.lp_auc")(LinkPrediction.auc(emb, prep.split))
        val prec = r.span("eval.recon")(GraphReconstruction.precisionAtK(emb, train, Workload.reconKs))
        val f1 = r.span("eval.nc")(NodeClassification.evaluate(emb, prep.lg.labels, prep.lg.numLabels, 0.5)._1)
        val evaluateS = secondsSince(t1)
        val quality = Seq(auc) ++ Workload.reconKs.map(prec) :+ f1
        check(auc > w.aucFloor, s"lp_auc $auc is not above the floor ${w.aucFloor}")
        reference match {
          case None => reference = Some(quality)
          case Some(ref) => check(ref.zip(quality).forall { case (a, b) => math.abs(a - b) <= 1e-9 * math.abs(a) },
            s"quality $quality differs from the first pass's $ref")
        }
        Map("index" -> index, "traced" -> r.enabled, "reweight_s" -> reweightS, "evaluate_s" -> evaluateS,
          "lp_auc" -> auc, "nc_micro_f1" -> f1,
          "recon_prec" -> Workload.reconKs.map(k => k.toString -> prec(k)).toMap)
      }

      var index = 0
      def next(base: ApproxPPR.LocalEmb, r: Recorder): Unit = {
        attempts(s"pass $index${if (r.enabled) " (traced)" else ""}")(pass(index, base, r)).foreach(passes += _)
        index += 1
      }
      def loop(body: => Unit): Unit = {
        val t0 = System.nanoTime()
        do body while (index < minPasses || secondsSince(t0) < args.seconds)
      }

      if (args.trace) {
        attempts("core.nrp")(checkResult(rec.span("core.nrp")(NRP(train, p)), n, w.kPrime))
        attempts("svd.bksvd") {
          val sigma = rec.span("svd.bksvd")(BKSVD(train, w.kPrime, p.eps, p.seed).sigma)
          check(sigma.length == w.kPrime && sigma.forall(_ >= 0) &&
            sigma.zip(sigma.drop(1)).forall { case (a, b) => a >= b },
            s"sigma is not non-negative and descending: ${sigma.mkString(",")}")
        }
        attempts("core.approxppr_l1_1")(approxPPR(1))
        attempts("core.approxppr")(approxPPR(p.l1)).foreach(base => loop { next(base, off); next(base, rec) })
      } else {
        // The first embedding is NRP.apply's own composition, kept in two
        // calls so that the passes can reuse the ApproxPPR output.
        attempts("first embedding") {
          val t0 = System.nanoTime()
          val base = approxPPR(p.l1)
          checkResult(NRP.reweight(train, base.x, base.y, p), n, w.kPrime)
          firstEmbedS = Some(secondsSince(t0))
          Jvm.sampleLiveHeap()
          base
        }.foreach(base => loop(next(base, off)))
      }
      Jvm.sampleLiveHeap()
    }

    Map(
      "workload" -> w.name, "seed" -> seed, "trace" -> args.trace, "seconds" -> args.seconds,
      "env" -> env, "setup_s" -> setupS.toSeq, "first_embed_s" -> firstEmbedS, "passes" -> passes.toSeq,
      "attempted" -> attempts.attempted, "failures" -> attempts.failures.toSeq,
      "heap_peak_mb" -> Jvm.liveHeapPeakMb,
      "spans" -> rec.spans.map(s => Map("id" -> s.id, "name" -> s.name, "parent" -> s.parent,
        "start_ns" -> s.startNs, "end_ns" -> s.endNs, "counters" -> s.counters)))
  }

  private def checkShape(m: Array[Array[Double]], n: Int, k: Int, what: String): Unit =
    check(m.length == n && m.forall(r => r.length == k && r.forall(v => !v.isNaN && !v.isInfinite)),
      s"$what is not a finite $n×$k matrix")

  private def checkResult(r: NRP.Result, n: Int, k: Int): Unit = {
    checkShape(r.x, n, k, "embedding x"); checkShape(r.y, n, k, "embedding y")
    val floor = 1.0 / n
    check(r.weights.wf.forall(_ >= floor) && r.weights.wb.forall(_ >= floor), s"a learned weight is below 1/n = $floor")
  }

  private def environment(spark: SparkSession, w: Workload, seed: Long, prep: Prepared): Map[String, Any] = {
    val p = w.params
    val sc = spark.sparkContext
    Map(
      "workload_seed" -> seed, "n" -> prep.lg.graph.n, "m" -> prep.lg.graph.m, "m_train" -> prep.split.train.m,
      "directed" -> w.directed, "k" -> p.k, "k_prime" -> w.kPrime,
      "krylov_q" -> BKSVD.iters(prep.split.train.n, p.eps), "l1" -> p.l1, "l2" -> p.l2,
      "alpha" -> p.alpha, "eps" -> p.eps, "lambda" -> p.lambda, "nrp_seed" -> p.seed,
      "recon_pairs" -> prep.lg.graph.n * (prep.lg.graph.n - 1),
      "nproc" -> Runtime.getRuntime.availableProcessors(), "max_heap_mb" -> Jvm.maxHeapMb,
      "spark_master" -> sc.master, "spark_version" -> spark.version,
      "default_parallelism" -> sc.defaultParallelism,
      "shuffle_partitions" -> spark.conf.get("spark.sql.shuffle.partitions"),
      "jdk" -> s"${sys.props("java.vm.name")} ${sys.props("java.version")}")
  }

  private def parse(argv: Array[String]): Args = {
    val kv = argv.grouped(2).collect { case Array(k, v) if k.startsWith("--") => k.drop(2) -> v }.toMap
    def need(k: String) = kv.getOrElse(k, throw new IllegalArgumentException(s"missing --$k"))
    Args(need("workload"), kv.get("seed").map(_.toLong), need("seconds").toDouble,
      kv.getOrElse("trace", "0") == "1", need("out"))
  }
}
