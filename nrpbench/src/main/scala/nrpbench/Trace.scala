package nrpbench

import java.lang.management.{ManagementFactory, MemoryType}
import java.util.concurrent.atomic.AtomicLong
import javax.management.{Notification, NotificationEmitter}
import javax.management.openmbean.CompositeData

import scala.collection.mutable.ArrayBuffer
import scala.jdk.CollectionConverters._

import com.sun.management.GarbageCollectionNotificationInfo
import org.apache.spark.{BenchListenerBus, SparkContext}
import org.apache.spark.scheduler.{SparkListener, SparkListenerStageCompleted, SparkListenerTaskEnd}

/** Spark work done since the listener was registered: completed stages,
  * finished tasks, summed executor run time and shuffle bytes read plus
  * written. Registered only in traced runs.
  */
final class SparkWork extends SparkListener {
  private val stages = new AtomicLong
  private val tasks = new AtomicLong
  private val runMs = new AtomicLong
  private val shuffleBytes = new AtomicLong

  override def onStageCompleted(e: SparkListenerStageCompleted): Unit = stages.incrementAndGet()

  override def onTaskEnd(e: SparkListenerTaskEnd): Unit = {
    tasks.incrementAndGet()
    val m = e.taskMetrics
    if (m != null) {
      runMs.addAndGet(m.executorRunTime)
      shuffleBytes.addAndGet(m.shuffleReadMetrics.totalBytesRead + m.shuffleWriteMetrics.bytesWritten)
    }
  }

  def snapshot: Map[String, Double] = Map(
    "stages" -> stages.get.toDouble,
    "tasks" -> tasks.get.toDouble,
    "task_busy_s" -> runMs.get / 1e3,
    "shuffle_mb" -> shuffleBytes.get / 1e6)
}

/** JVM memory figures: total GC time, the heap occupied right after the
  * latest collection, and the live heap: what a full collection leaves,
  * sampled at the ends of a run's phases.
  */
object Jvm {
  private val heapPools: Set[String] = ManagementFactory.getMemoryPoolMXBeans.asScala
    .filter(_.getType == MemoryType.HEAP).map(_.getName).toSet
  private val livePeak = new AtomicLong
  @volatile private var lastAfterGc = 0L

  ManagementFactory.getGarbageCollectorMXBeans.asScala.foreach {
    case e: NotificationEmitter =>
      e.addNotificationListener((n: Notification, _: AnyRef) =>
        if (n.getType == GarbageCollectionNotificationInfo.GARBAGE_COLLECTION_NOTIFICATION) {
          val info = GarbageCollectionNotificationInfo.from(n.getUserData.asInstanceOf[CompositeData])
          val used = info.getGcInfo.getMemoryUsageAfterGc.asScala
            .collect { case (pool, u) if heapPools(pool) => u.getUsed }.sum
          lastAfterGc = used
        }, null, null)
    case _ =>
  }

  def gcSeconds: Double =
    ManagementFactory.getGarbageCollectorMXBeans.asScala.map(_.getCollectionTime).filter(_ > 0).sum / 1e3

  def heapAfterGcMb: Double = lastAfterGc / 1e6

  /** Runs a full collection and records the heap it leaves. Young
    * collections leave garbage in the old generation, so only a full one
    * shows what the run holds.
    */
  def sampleLiveHeap(): Unit = {
    System.gc()
    livePeak.accumulateAndGet(ManagementFactory.getMemoryMXBean.getHeapMemoryUsage.getUsed, math.max)
  }

  def liveHeapPeakMb: Double = livePeak.get / 1e6
  def maxHeapMb: Double = Runtime.getRuntime.maxMemory / 1e6
}

/** One recorded span; `parent` is -1 for a root span. */
final case class Span(id: Int, name: String, parent: Int, startNs: Long, endNs: Long,
                      counters: Map[String, Double])

/** Span recorder, kept in memory and written out when the run ends. Each
  * span carries the Spark work ([[SparkWork]]) and GC time accrued while it
  * was open, and the heap left after the latest GC when it closed. A
  * disabled recorder just runs the body, so untraced runs pay nothing.
  */
final class Recorder(sc: Option[SparkContext]) {
  private val work = sc.map { c => val w = new SparkWork; c.addSparkListener(w); w }
  private val recorded = ArrayBuffer.empty[Span]
  private var open = List.empty[Int]
  private var nextId = 0

  def enabled: Boolean = sc.isDefined
  def spans: Seq[Span] = recorded.toSeq.sortBy(_.id)

  def span[A](name: String)(body: => A): A =
    if (!enabled) body
    else {
      val id = nextId
      nextId += 1
      val parent = open.headOption.getOrElse(-1)
      val before = counters()
      open = id :: open
      val start = System.nanoTime()
      try body
      finally {
        val end = System.nanoTime()
        open = open.tail
        val after = counters()
        val delta = after.map { case (k, v) => k -> (v - before(k)) }
        recorded += Span(id, name, parent, start, end, delta + ("heap_after_gc_mb" -> Jvm.heapAfterGcMb))
      }
    }

  private def counters(): Map[String, Double] = {
    sc.foreach(BenchListenerBus.drain)
    work.map(_.snapshot).getOrElse(Map.empty) + ("gc_s" -> Jvm.gcSeconds)
  }
}
