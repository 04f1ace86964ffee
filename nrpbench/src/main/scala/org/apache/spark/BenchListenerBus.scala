package org.apache.spark

/** Lets the benchmark wait until every Spark listener event posted so far
  * has been delivered, so that the counters it reads at a span's end
  * include all stages and tasks that ran inside the span. The bus is
  * private to the `org.apache.spark` package, hence this file's package.
  */
object BenchListenerBus {
  def drain(sc: SparkContext): Unit = sc.listenerBus.waitUntilEmpty()
}
