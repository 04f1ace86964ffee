package repro.eval

import org.apache.spark.sql.{CachedEntries, DataFrame}
import org.apache.spark.sql.functions._
import repro.{Oracle, SparkSpec}
import repro.baselines.Emb
import repro.graph.{Generators, Graph}

/** Link-prediction protocol tests. The driver-side split and sample are
  * checked against Spark's hash expression and the edge DataFrame; the
  * query-shaped pieces (split counts, negative sampling, AUC) against
  * DuckDB.
  */
class LinkPredictionSpec extends SparkSpec {

  private lazy val sbm = Generators.dcsbm(spark, n = 300, avgDeg = 5, numLabels = 3, seed = 61).graph
  private lazy val und = Generators.dcsbm(spark, n = 300, avgDeg = 4, numLabels = 3,
    directed = false, seed = 62).graph

  /** Spark-SQL AUC over a (score, label) DataFrame, cross-checked against
    * `aucLocal` and the DuckDB oracle.
    */
  private def aucDf(scores: DataFrame): Double = {
    scores.createOrReplaceTempView("lp_scores")
    spark.sql(
      """SELECT (SUM(CASE WHEN label = 1 THEN r ELSE 0 END) - (SUM(label) * (SUM(label) + 1)) / 2.0)
        |       / (SUM(label) * (COUNT(*) - SUM(label))) AS auc
        |FROM (SELECT label, AVG(rn) OVER (PARTITION BY score) AS r
        |      FROM (SELECT score, label, ROW_NUMBER() OVER (ORDER BY score) AS rn FROM lp_scores))
        |""".stripMargin).collect()(0).getDouble(0)
  }

  /** The driver-side test pairs as a (src, dst) DataFrame, for the oracle checks. */
  private def pairsDf(pairs: Array[(Int, Int)]): DataFrame = {
    import spark.implicits._
    pairs.toSeq.map { case (u, v) => (u.toLong, v.toLong) }.toDF("src", "dst")
  }

  test("split removes roughly 30% of the edges") {
    val s = LinkPrediction.split(sbm, 0.3, seed = 1)
    val frac = 1.0 - s.train.m.toDouble / sbm.m
    assert(frac > 0.2 && frac < 0.4, s"removed fraction $frac")
  }

  test("train and test-positive edges partition the graph (oracle)") {
    val s = LinkPrediction.split(sbm, 0.3, seed = 1)
    val testPos = pairsDf(s.testPos)
    // no overlap
    assert(s.train.edges.join(testPos, Seq("src", "dst")).count() == 0)
    // union restores the original edge set — checked in DuckDB
    import spark.implicits._
    val unionCount = Seq(s.train.edges.union(testPos).distinct().count()).toDF("c")
    Oracle.assertEquivalent(unionCount,
      "SELECT COUNT(*) AS c FROM (SELECT DISTINCT src, dst FROM full_edges)",
      "full_edges" -> sbm.edges)
  }

  test("undirected split removes both orientations together") {
    val s = LinkPrediction.split(und, 0.3, seed = 2)
    // the train graph must still be symmetric
    val missing = s.train.edges
      .join(s.train.edges.select(col("dst").as("src"), col("src").as("dst")),
        Seq("src", "dst"), "left_anti")
    assert(missing.count() == 0)
    // positives are canonical pairs
    assert(pairsDf(s.testPos).filter(col("src") >= col("dst")).count() == 0)
  }

  test("negative sample has the same size as the positive sample") {
    val s = LinkPrediction.split(sbm, 0.3, seed = 1)
    assert(s.testNeg.length == s.testPos.length)
  }

  test("negative samples are non-edges and non-self-pairs (oracle)") {
    val s = LinkPrediction.split(sbm, 0.3, seed = 1)
    val testNeg = pairsDf(s.testNeg)
    import spark.implicits._
    val offending = Seq((
      testNeg.join(sbm.edges, Seq("src", "dst")).count(),
      testNeg.filter(col("src") === col("dst")).count())).toDF("edge_hits", "self_pairs")
    Oracle.assertEquivalent(
      offending.filter(col("edge_hits") === 0 && col("self_pairs") === 0),
      "SELECT CAST(0 AS BIGINT) AS edge_hits, CAST(0 AS BIGINT) AS self_pairs",
      "neg" -> testNeg)
  }

  test("a graph with too few non-edges fails the sample instead of returning a short one") {
    // every ordered pair of 6 nodes but (5, 0): one non-edge in all
    val pairs = for (u <- 0L until 6L; v <- 0L until 6L if u != v && !(u == 5 && v == 0)) yield (u, v)
    val g = Graph.fromLocal(spark, pairs, n = 6, directed = true)
    val e = intercept[IllegalStateException](LinkPrediction.sampleNonEdges(g, 5, seed = 1))
    assert(e.getMessage.contains("wanted 5 non-edges but the graph has only 1"), e.getMessage)
    intercept[IllegalStateException](LinkPrediction.split(g, 0.3, seed = 1))
  }

  test("the driver cut selects exactly the rows of Spark's pmod(hash(src, dst, seed), 1000)") {
    for ((g, seed) <- Seq(sbm -> 3, und -> 7)) {
      val (src, dst) =
        if (g.directed) (col("src"), col("dst")) else (least(col("src"), col("dst")), greatest(col("src"), col("dst")))
      val keyed = g.edges.withColumn("h", pmod(hash(src, dst, lit(seed)), lit(1000)))
      val s = LinkPrediction.split(g, 0.3, seed)
      val kept = pairs(keyed.filter(col("h") >= 300)).toSet
      val removed = pairs(keyed.filter(col("h") < 300 && (lit(g.directed) || col("src") < col("dst"))))
      assert(s.train.adjacency.entries.toSet == kept, s"directed=${g.directed}")
      assert(s.testPos.sorted.toSeq == removed.sorted.toSeq, s"directed=${g.directed}")
    }
  }

  /** The non-edge sample drawn after rebuilding `g` from its edges in
    * `edgeParts` partitions, with `shuffleParts` shuffle partitions.
    */
  private def sampleUnder(g: Graph, count: Int, shuffleParts: Int, edgeParts: Int): Seq[(Int, Int)] = {
    val before = spark.conf.get("spark.sql.shuffle.partitions")
    spark.conf.set("spark.sql.shuffle.partitions", shuffleParts.toLong)
    try {
      val rebuilt = Graph.fromEdges(g.edges.repartition(edgeParts), g.n, g.directed)
      LinkPrediction.sampleNonEdges(rebuilt, count, seed = 3).toSeq
    } finally spark.conf.set("spark.sql.shuffle.partitions", before)
  }

  test("the non-edge sample is uniform and does not depend on Spark partitioning") {
    for (g <- Seq(sbm, und)) {
      val reference = sampleUnder(g, 600, shuffleParts = 64, edgeParts = 1)
      assert(sampleUnder(g, 600, shuffleParts = 1, edgeParts = 1) == reference, s"directed=${g.directed}")
      assert(sampleUnder(g, 600, shuffleParts = 64, edgeParts = 7) == reference, s"directed=${g.directed}")
    }
    // uniform pairs have a uniform source: mean (n−1)/2, sd ≈ n/√12
    val count = 4000
    val srcs = sampleUnder(sbm, count, shuffleParts = 64, edgeParts = 1).map(_._1.toDouble)
    val n = sbm.n.toDouble
    val stdErr = n / math.sqrt(12.0) / math.sqrt(count.toDouble)
    val mean = srcs.sum / count
    assert(math.abs(mean - (n - 1) / 2) < 4 * stdErr, s"mean source $mean, standard error $stdErr")
  }

  test("aucLocal: perfect, inverted, and random scorers") {
    val perfect = Seq((1.0, 1), (0.9, 1), (0.2, 0), (0.1, 0))
    assert(LinkPrediction.aucLocal(perfect) == 1.0)
    val inverted = perfect.map { case (sc, l) => (sc, 1 - l) }
    assert(LinkPrediction.aucLocal(inverted) == 0.0)
    val rng = new scala.util.Random(3)
    val random = Seq.fill(4000)((rng.nextDouble(), rng.nextInt(2)))
    assert(math.abs(LinkPrediction.aucLocal(random) - 0.5) < 0.05)
  }

  test("aucLocal terminates and stays bounded in the presence of NaN scores") {
    // regression: NaN != NaN must not stall the tie scan
    val scored = Seq((Double.NaN, 1), (0.5, 0), (Double.NaN, 0), (0.7, 1))
    val a = LinkPrediction.aucLocal(scored)
    assert(a >= 0.0 && a <= 1.0)
  }

  test("aucLocal averages tied scores") {
    // all scores equal → AUC must be exactly 0.5
    val tied = Seq((0.5, 1), (0.5, 0), (0.5, 1), (0.5, 0))
    assert(LinkPrediction.aucLocal(tied) == 0.5)
  }

  test("aucDf (Spark SQL) matches aucLocal and the DuckDB oracle") {
    val rng = new scala.util.Random(4)
    val scored = Seq.fill(500)((math.floor(rng.nextDouble() * 20) / 20.0, rng.nextInt(2)))
    import spark.implicits._
    val df = scored.toDF("score", "label")
    val fromDf = aucDf(df)
    val fromLocal = LinkPrediction.aucLocal(scored)
    assert(math.abs(fromDf - fromLocal) < 1e-9)
    val aucQuery =
      """SELECT (SUM(CASE WHEN label = 1 THEN r ELSE 0 END) - (SUM(label) * (SUM(label) + 1)) / 2.0)
        |       / (SUM(label) * (COUNT(*) - SUM(label))) AS auc
        |FROM (SELECT label, AVG(rn) OVER (PARTITION BY score) AS r
        |      FROM (SELECT CAST(score AS DOUBLE) AS score, CAST(label AS INT) AS label,
        |                   ROW_NUMBER() OVER (ORDER BY CAST(score AS DOUBLE)) AS rn
        |            FROM scores))
        |""".stripMargin
    Oracle.assertEquivalent(Seq(fromDf).toDF("auc"), aucQuery, "scores" -> df)
  }

  test("auc of an oracle embedding that memorizes edges is high") {
    val s = LinkPrediction.split(sbm, 0.3, seed = 5)
    val adj = sbm.adjacency
    // fake embedding via score function: wrap a lookup in Emb-compatible arrays
    val pos = s.testPos.map { case (u, v) => (if (adj.contains(u, v)) 1.0 else 0.0, 1) }
    val neg = s.testNeg.map { case (u, v) => (if (adj.contains(u, v)) 1.0 else 0.0, 0) }
    assert(LinkPrediction.aucLocal(pos ++ neg) > 0.99)
  }

  test("auc accepts an Emb and runs end to end") {
    val s = LinkPrediction.split(sbm, 0.3, seed = 6)
    val rng = new scala.util.Random(7)
    val x = Array.fill(300, 4)(rng.nextGaussian())
    val a = LinkPrediction.auc(Emb(x, x), s)
    assert(a >= 0.0 && a <= 1.0)
  }

  test("auc runs no Spark job") {
    val s = LinkPrediction.split(sbm, 0.3, seed = 6)
    val rng = new scala.util.Random(8)
    val x = Array.fill(300, 4)(rng.nextGaussian())
    val jobs = jobsDuring("lp-auc")(LinkPrediction.auc(Emb(x, x), s))
    assert(jobs == 0, s"$jobs Spark jobs ran while scoring")
  }

  test("split runs no Spark job and caches nothing once the adjacency exists") {
    val g = sbm // generated, with its adjacency, before the count starts
    val cachedBefore = CachedEntries(spark)
    val jobs = jobsDuring("lp-split")(LinkPrediction.split(g, 0.3, seed = 4))
    assert(jobs == 0, s"$jobs Spark jobs ran while splitting")
    assert(CachedEntries(spark) == cachedBefore, s"the split cached ${CachedEntries(spark) - cachedBefore} new results")
  }
}
