package org.apache.spark.sql

/** How many query results a session's cache manager holds: Spark keeps
  * that count visible to its own package only.
  */
object CachedEntries {
  def apply(spark: SparkSession): Int = spark.sharedState.cacheManager.numCachedEntries
}
