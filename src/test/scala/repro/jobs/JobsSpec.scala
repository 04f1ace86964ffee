package repro.jobs

import repro.SparkSpec

/** The spark-submit dispatcher: table names, argument checking (no Spark
  * session is started for a rejected argument list) and one exhibit run
  * end to end through its gate.
  */
class JobsSpec extends SparkSpec {

  private val names = Seq("t1", "t3", "t4", "t5", "t6", "t7", "t8", "t9", "t10")

  test("the dispatcher knows exactly the reproduced tables") {
    assert(Jobs.tables.keySet == names.toSet)
  }

  test("a missing or unknown table name is rejected naming the valid tables") {
    for (args <- Seq(Array.empty[String], Array("t2"), Array("T4"), Array("t4", "t5"))) {
      val e = intercept[IllegalArgumentException](Jobs.main(args))
      assert(e.getMessage.contains(names.mkString(", ")), e.getMessage)
    }
  }

  test("t1 runs, prints and passes its gate") {
    val rows = Jobs.tables("t1")(spark).asInstanceOf[Map[String, Seq[Double]]]
    assert(rows.keySet == Set("v2", "v4", "v7", "v9"))
  }
}
