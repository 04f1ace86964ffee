package repro.eval

import repro.baselines.Emb
import repro.graph.Graph

/** The graph-reconstruction protocol of §5.3: score all ordered node
  * pairs and report precision@K — the fraction of the top-K scored pairs
  * that are true edges.
  *
  * Scoring is an n²-shaped dense computation by nature (the very reason
  * the paper samples 1 % of the pairs on medium graphs and skips the
  * largest); we run it driver-local, parallel over sources, with bounded
  * per-thread heaps merged at the end.
  */
object GraphReconstruction {

  /** precision@K for each requested K (evaluated on one merged ranking).
    * Pairs rank by score, ties by the lower pair code u·n+v, so the top K
    * does not depend on how rows are spread over threads.
    */
  def precisionAtK(emb: Emb, g: Graph, ks: Seq[Int]): Map[Int, Double] = {
    val n = g.n.toInt
    val maxK = ks.max
    val adj = g.adjacency
    val nThreads = Runtime.getRuntime.availableProcessors()
    val heaps = Array.fill(nThreads)(new BoundedTopK(maxK))
    // worker t owns heaps(t) and the rows u ≡ t (mod nThreads): no lock
    java.util.stream.IntStream.range(0, nThreads).parallel().forEach { t =>
      val heap = heaps(t)
      var u = t
      while (u < n) {
        var v = 0
        while (v < n) {
          if (v != u) heap.offer(emb.score(u, v), u.toLong * n + v)
          v += 1
        }
        u += nThreads
      }
    }
    val top = heaps.flatMap(_.drain()).sorted(BoundedTopK.ranking).take(maxK)
    ks.map { k =>
      val hits = top.iterator.take(k).count { case (_, code) =>
        adj.contains((code / n).toInt, (code % n).toInt)
      }
      k -> hits.toDouble / k
    }.toMap
  }

  /** Fixed-capacity heap of (score, payload) keeping the `capacity` offers
    * that come first in `BoundedTopK.ranking`.
    */
  final class BoundedTopK(capacity: Int) {
    // head = the kept offer that ranks last
    private val pq = new java.util.PriorityQueue[(Double, Long)](
      math.max(capacity, 1), BoundedTopK.ranking.reverse)
    def offer(score: Double, payload: Long): Unit = {
      if (pq.size < capacity) pq.offer((score, payload))
      else if (BoundedTopK.ranking.lt((score, payload), pq.peek())) { pq.poll(); pq.offer((score, payload)) }
    }
    def drain(): Seq[(Double, Long)] = {
      val buf = scala.collection.mutable.ArrayBuffer.empty[(Double, Long)]
      while (!pq.isEmpty) buf += pq.poll()
      buf.toSeq
    }
  }

  object BoundedTopK {
    /** Higher score first; equal scores by lower payload. */
    val ranking: Ordering[(Double, Long)] = (a, b) => {
      val c = java.lang.Double.compare(b._1, a._1)
      if (c != 0) c else java.lang.Long.compare(a._2, b._2)
    }
  }
}
