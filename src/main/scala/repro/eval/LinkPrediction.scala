package repro.eval

import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions._
import repro.baselines.Emb
import repro.graph.Graph

/** The link-prediction protocol of §5.2: remove 30 % of the edges, embed
  * the residual graph, and rank the removed edges against an equal number
  * of non-edges by AUC. On directed graphs pairs are ordered; on
  * undirected graphs an edge is removed with both its orientations
  * (split on canonical (min,max) pairs) and tested once.
  */
object LinkPrediction {

  /** `train` is the residual graph G′; `testPos`/`testNeg` are (src,dst)
    * pairs of equal size, collected to the driver once, when the split is
    * made, so that scoring an embedding runs no Spark job.
    */
  final case class Split(train: Graph, testPos: Array[(Int, Int)], testNeg: Array[(Int, Int)])

  def split(g: Graph, removeFrac: Double = 0.3, seed: Int = 1): Split = {
    val spark = g.spark
    val cut = (removeFrac * 1000).toInt
    val keyed =
      if (g.directed) g.edges.withColumn("h", pmod(hash(col("src"), col("dst"), lit(seed)), lit(1000)))
      else g.edges.withColumn("h",
        pmod(hash(least(col("src"), col("dst")), greatest(col("src"), col("dst")), lit(seed)), lit(1000)))
    val kept = keyed.filter(col("h") >= cut).drop("h")
    val removedAll = keyed.filter(col("h") < cut).drop("h")
    // test each undirected pair once (canonical orientation)
    val removed =
      if (g.directed) removedAll
      else removedAll.filter(col("src") < col("dst"))
    val train = Graph.fromEdges(spark, kept, g.n, g.directed)
    val pos = pairs(removed)
    Split(train, pos, sampleNonEdges(spark, g, pos.length, seed))
  }

  /** Uniform non-edge sample of the requested size: over-generate random
    * pairs, drop self-pairs, anti-join the full edge set, dedup, limit.
    * Throws `IllegalStateException` when even a 48× over-draw finds fewer
    * than `count` non-edges (a near-complete graph).
    */
  def sampleNonEdges(spark: SparkSession, g: Graph, count: Long, seed: Int): Array[(Int, Int)] = {
    val n = g.n
    val want = math.max(count, 1L)
    var factor = 3L
    var result = Array.empty[(Int, Int)]
    while (result.length < want && factor <= 48) {
      val cand = spark.range(want * factor).select(
        (rand(seed + factor) * n).cast("long").as("src"),
        (rand(seed + factor + 1000) * n).cast("long").as("dst"))
        .filter(col("src") =!= col("dst"))
      val canon = if (g.directed) cand
        else cand.select(least(col("src"), col("dst")).as("src"), greatest(col("src"), col("dst")).as("dst"))
      // collected through the cache: the cached plan fixes which rows the limit keeps
      val sample = canon.distinct()
        .join(g.edges, Seq("src", "dst"), "left_anti")
        .limit(want.toInt)
        .cache()
      result = pairs(sample)
      sample.unpersist()
      factor *= 2
    }
    if (result.length < want)
      throw new IllegalStateException(
        s"sampleNonEdges wanted $want non-edges but found ${result.length} after a ${factor / 2}× over-draw")
    result
  }

  /** Score every test pair with `x(u)·y(v)` and compute AUC. */
  def auc(emb: Emb, s: Split): Double =
    aucLocal(s.testPos.map { case (u, v) => (emb.score(u, v), 1) } ++
      s.testNeg.map { case (u, v) => (emb.score(u, v), 0) })

  /** The (src, dst) rows of a DataFrame, collected to the driver. */
  def pairs(df: DataFrame): Array[(Int, Int)] =
    df.collect().map(r => (r.getLong(0).toInt, r.getLong(1).toInt))

  /** Rank-based AUC (Mann–Whitney) with average ranks for ties. */
  def aucLocal(scored: Iterable[(Double, Int)]): Double = {
    val sorted = scored.toArray.sortBy(_._1) // array: O(1) indexing below
    val nP = sorted.count(_._2 == 1).toDouble
    val nN = sorted.length - nP
    require(nP > 0 && nN > 0, "AUC needs both classes")
    var i = 0
    var rankSumPos = 0.0
    while (i < sorted.length) {
      // j starts past i so a NaN score (NaN != NaN) cannot stall the scan
      var j = i + 1
      while (j < sorted.length && sorted(j)._1 == sorted(i)._1) j += 1
      val avgRank = (i + 1 + j) / 2.0 // mean of ranks i+1 … j
      var t = i
      while (t < j) { if (sorted(t)._2 == 1) rankSumPos += avgRank; t += 1 }
      i = j
    }
    (rankSumPos - nP * (nP + 1) / 2.0) / (nP * nN)
  }

  /** Spark-side AUC over a (score, label) DataFrame — the implementation
    * that the DuckDB oracle cross-checks in tests.
    */
  def aucDf(scores: DataFrame): Double = {
    val spark = scores.sparkSession
    scores.createOrReplaceTempView("lp_scores")
    val row = spark.sql(
      """SELECT (SUM(CASE WHEN label = 1 THEN r ELSE 0 END) - (SUM(label) * (SUM(label) + 1)) / 2.0)
        |       / (SUM(label) * (COUNT(*) - SUM(label))) AS auc
        |FROM (SELECT label, AVG(rn) OVER (PARTITION BY score) AS r
        |      FROM (SELECT score, label, ROW_NUMBER() OVER (ORDER BY score) AS rn FROM lp_scores))
        |""".stripMargin).collect()(0)
    row.getDouble(0)
  }
}
