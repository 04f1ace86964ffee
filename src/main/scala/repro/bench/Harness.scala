package repro.bench

import repro.graph.Generators
import repro.graph.Generators.LabeledGraph

/** Shared bench plumbing: wall-clock timing, markdown-ish table printing
  * (every table row also lands on stderr so `tee`'d bench output contains
  * the full reproduction of each paper exhibit), and the named dataset
  * roster used across tables.
  */
object Harness {

  /** Wall-clock a thunk; returns (result, seconds). */
  def timed[A](body: => A): (A, Double) = {
    val t0 = System.nanoTime()
    val r = body
    (r, (System.nanoTime() - t0) / 1e9)
  }

  /** Print one table with a header, aligned columns. */
  def printTable(title: String, header: Seq[String], rows: Seq[Seq[String]]): Unit = {
    val all = header +: rows
    val widths = header.indices.map(i => all.map(r => r(i).length).max)
    def fmt(r: Seq[String]) = r.zip(widths).map { case (c, w) => c.padTo(w, ' ') }.mkString("| ", " | ", " |")
    val sep = widths.map("-" * _).mkString("|-", "-|-", "-|")
    val lines = Seq(s"### $title", fmt(header), sep) ++ rows.map(fmt)
    lines.foreach(println)
  }

  def f3(x: Double): String = f"$x%.3f"
  def f1(x: Double): String = f"$x%.1f"

  /** The small labeled datasets (every task). */
  def smallDatasets: Seq[(String, LabeledGraph)] = Seq(
    "wiki-lite" -> Generators.wikiLite,
    "blog-lite" -> Generators.blogLite)

  /** The medium labeled datasets (LP / classification / stats). */
  def mediumDatasets: Seq[(String, LabeledGraph)] = Seq(
    "youtube-lite" -> Generators.youtubeLite,
    "tweibo-lite" -> Generators.tweiboLite)
}
