package repro

import java.util.concurrent.{CountDownLatch, TimeUnit}
import java.util.concurrent.atomic.{AtomicBoolean, AtomicInteger}
import org.apache.spark.scheduler.{SparkListener, SparkListenerJobStart}
import org.apache.spark.sql.{DataFrame, SparkSession}
import org.scalatest.BeforeAndAfterAll
import org.scalatest.funsuite.AnyFunSuite
import repro.graph.Graph
import repro.linalg.Csr

/** Base for every test: one local-mode SparkSession for the whole run.
  *
  * Driver heap is set via ``Test / javaOptions`` in build.sbt from
  * SPARK_DRIVER_MEM (the image exports it, or derives ~75% of the cgroup
  * limit). Broadcast joins are disabled, so the joins that tests run as
  * Spark-side cross-checks take the shuffle path.
  */
trait SparkSpec extends AnyFunSuite with BeforeAndAfterAll {
  lazy val spark: SparkSession = SparkSpec.shared

  override def afterAll(): Unit = { super.afterAll() }

  /** A graph's edge list as a (src, dst) DataFrame of long ids, built from
    * its adjacency CSR, for the Spark queries and DuckDB checks of tests.
    */
  implicit class GraphEdges(g: Graph) {
    def edges: DataFrame = {
      import spark.implicits._
      g.adjacency.entries.map { case (u, v) => (u.toLong, v.toLong) }.toSeq.toDF("src", "dst")
    }
  }

  /** The (src, dst) rows of a DataFrame of long ids, collected to the driver. */
  def pairs(df: DataFrame): Array[(Int, Int)] =
    df.collect().map(r => (r.getLong(0).toInt, r.getLong(1).toInt))

  /** Asserts that two CSRs hold the same arrays, element by element. */
  def assertSameCsr(got: Csr, want: Csr, clue: String): Unit = {
    assert(got.rows == want.rows && got.cols == want.cols, s"$clue: shape")
    assert(got.offsets.sameElements(want.offsets), s"$clue: offsets")
    assert(got.colIdx.sameElements(want.colIdx), s"$clue: colIdx")
    assert(got.values.sameElements(want.values), s"$clue: values")
  }

  /** The Spark jobs that `body` starts. Listener events arrive in order:
    * count the jobs that start between a marker job run just before `body`
    * and one run just after it.
    */
  def jobsDuring(label: String)(body: => Any): Int = {
    val sc = spark.sparkContext
    val counting = new AtomicBoolean(false)
    val jobs = new AtomicInteger
    val endSeen = new CountDownLatch(1)
    val listener = new SparkListener {
      override def onJobStart(e: SparkListenerJobStart): Unit =
        Option(e.properties).map(_.getProperty("spark.jobGroup.id")).orNull match {
          case g if g == s"$label-start" => counting.set(true)
          case g if g == s"$label-end" => counting.set(false); endSeen.countDown()
          case _ => if (counting.get()) jobs.incrementAndGet()
        }
    }
    def marker(group: String): Unit = {
      sc.setJobGroup(group, s"marks the bounds of $label")
      try spark.range(1).count() finally sc.clearJobGroup()
    }
    sc.addSparkListener(listener)
    try {
      marker(s"$label-start")
      body
      marker(s"$label-end")
      assert(endSeen.await(30, TimeUnit.SECONDS), "end marker job not observed")
      jobs.get()
    } finally sc.removeSparkListener(listener)
  }
}

object SparkSpec {
  lazy val shared: SparkSession = {
    val s = SparkSession.builder()
      .master(sys.env.getOrElse("SPARK_MASTER", "local[*]"))
      .appName("repro")
      .config("spark.sql.shuffle.partitions",
              sys.env.getOrElse("SPARK_SHUFFLE_PARTITIONS", "64"))
      .config("spark.sql.autoBroadcastJoinThreshold", -1)
      .getOrCreate()
    // One line in test output that tells the driver whether the cgroup
    // derivation saw the real limit (README § Spark target).
    Console.err.println(
      s"[SparkSpec] driverMem=${sys.env.getOrElse("SPARK_DRIVER_MEM", "(unset)")} " +
      s"master=${s.sparkContext.master} " +
      s"defaultParallelism=${s.sparkContext.defaultParallelism}"
    )
    s
  }
}
