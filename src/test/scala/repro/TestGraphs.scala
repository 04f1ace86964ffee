package repro

import repro.graph.Graph

/** Small hand-written test graphs, built without Spark. */
object TestGraphs {

  /** The graph over nodes 0…n−1 with `edges`, built by [[Graph.fromPairs]]. */
  def graph(n: Int, directed: Boolean, edges: (Int, Int)*): Graph =
    Graph.fromPairs(n, edges.map(_._1).toArray, edges.map(_._2).toArray, edges.length, directed)
}
