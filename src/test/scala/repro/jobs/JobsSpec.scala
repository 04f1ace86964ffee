package repro.jobs

import repro.SparkSpec

/** The exhibit dispatcher: table names, argument checking and one exhibit
  * run end to end through its gate, by `main` too, which starts no Spark
  * job and leaves the running session alone.
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
    val rows = Jobs.tables("t1")().asInstanceOf[Map[String, Seq[Double]]]
    assert(rows.keySet == Set("v2", "v4", "v7", "v9"))
  }

  test("main runs t1 without a Spark job and does not stop the session") {
    val jobs = jobsDuring("main t1")(Jobs.main(Array("t1")))
    assert(jobs == 0, s"$jobs Spark jobs ran in Jobs.main")
    assert(!spark.sparkContext.isStopped, "Jobs.main stopped the running SparkSession")
  }
}
