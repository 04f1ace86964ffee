package repro.jobs

import org.apache.spark.sql.SparkSession
import repro.bench.Tables
import scala.collection.immutable.ListMap

/** Entry point: one argument names the reproduced exhibit to run, print
  * and gate (DESIGN.md §4); a failed gate throws, so the job exits
  * non-zero. No exhibit uses Spark, so `main` starts no session. Example:
  * `sbt "runMain repro.jobs.Jobs t4"`, or
  * `spark-submit --class repro.jobs.Jobs target/scala-2.13/repro_2.13-*.jar t4`
  */
object Jobs {
  /** A session for callers that ingest a DataFrame (nrpbench). */
  def session(name: String): SparkSession =
    SparkSession.builder().master(sys.env.getOrElse("SPARK_MASTER", "local[*]")).appName(name).getOrCreate()

  /** Table name → runner; `t8` prints both T8 (AUC) and T11 (time). */
  val tables: ListMap[String, () => Any] = ListMap(
    "t1" -> (() => Tables.table1()),
    "t3" -> (() => Tables.datasetStats()),
    "t4" -> (() => Tables.linkPrediction()),
    "t5" -> (() => Tables.reconstruction()),
    "t6" -> (() => Tables.classification()),
    "t7" -> (() => Tables.efficiency()),
    "t8" -> (() => Tables.paramSweeps()),
    "t9" -> (() => Tables.evolving()),
    "t10" -> (() => Tables.scalability()))

  def main(args: Array[String]): Unit = {
    val runner = args match {
      case Array(t) if tables.contains(t) => tables(t)
      case _ => throw new IllegalArgumentException(
        s"expected one table name, one of ${tables.keys.mkString(", ")}; " +
          s"got '${args.mkString(" ")}'")
    }
    runner()
  }
}
