package repro.jobs

import org.scalatest.funsuite.AnyFunSuite

/** The spark-submit dispatcher: table names and argument checking (no
  * Spark session is started for a rejected argument list).
  */
class JobsSpec extends AnyFunSuite {

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
}
