package repro.jobs

import org.apache.spark.sql.SparkSession
import repro.bench.Tables
import scala.collection.immutable.ListMap

/** spark-submit entry point: one argument names the reproduced exhibit
  * to run, print and gate (DESIGN.md §4); a failed gate throws, so the job
  * exits non-zero. Example:
  * `spark-submit --class repro.jobs.Jobs target/scala-2.13/repro_2.13-*.jar t4`
  */
object Jobs {
  def session(name: String): SparkSession = {
    val s = SparkSession.builder()
      .master(sys.env.getOrElse("SPARK_MASTER", "local[*]"))
      .appName(name)
      .getOrCreate()
    s
  }

  /** Table name → runner; `t8` prints both T8 (AUC) and T11 (time). */
  val tables: ListMap[String, SparkSession => Any] = ListMap(
    "t1" -> (Tables.table1(_)),
    "t3" -> (Tables.datasetStats(_)),
    "t4" -> (Tables.linkPrediction(_)),
    "t5" -> (Tables.reconstruction(_)),
    "t6" -> (Tables.classification(_)),
    "t7" -> (Tables.efficiency(_)),
    "t8" -> (Tables.paramSweeps(_)),
    "t9" -> (Tables.evolving(_)),
    "t10" -> (Tables.scalability(_)))

  def main(args: Array[String]): Unit = {
    val runner = args match {
      case Array(t) if tables.contains(t) => tables(t)
      case _ => throw new IllegalArgumentException(
        s"expected one table name, one of ${tables.keys.mkString(", ")}; " +
          s"got '${args.mkString(" ")}'")
    }
    val spark = session(s"nrp-${args(0)}")
    try runner(spark)
    finally spark.stop()
  }
}
