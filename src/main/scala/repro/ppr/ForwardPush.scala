package repro.ppr

import repro.graph.Graph
import repro.linalg.Csr
import scala.collection.mutable

/** Andersen-style forward (local) push for approximate single-source PPR —
  * the substrate STRAP's published algorithm is built on. For each source
  * it maintains reserves `p` and residues `r` with the invariant
  * `π(s,·) = p(·) + Σ_u r(u)·π(u,·)`; pushing any node with
  * `r(u) > rmax·d_out(u)` until none remain guarantees
  * `|π(s,v) − p(v)| ≤ rmax · d_in-weighted mass ≤ rmax · m` overall and the
  * standard per-entry bound `π(s,v) − p(v) ≤ rmax · d_out`-normalized
  * residue mass. Driver-local over the graph's adjacency CSR: STRAP is
  * evaluated on the small/medium graphs only (on large ones the paper
  * reports it fails to scale, which we reproduce by construction).
  */
object ForwardPush {

  /** Single-source approximate PPR by forward push with residue threshold
    * `rmax`; returns the sparse reserve vector. Residue at dangling nodes
    * is discarded (the walk halts there, matching [[ExactPPR]]).
    */
  def push(g: Csr, source: Int, alpha: Double, rmax: Double): mutable.LongMap[Double] = {
    val p = new mutable.LongMap[Double]()
    val r = new mutable.LongMap[Double]()
    r(source) = 1.0
    val queue = mutable.Queue[Int](source)
    val inQueue = new Array[Boolean](g.rows)
    inQueue(source) = true
    while (queue.nonEmpty) {
      val u = queue.dequeue()
      inQueue(u) = false
      val ru = r.getOrElse(u, 0.0)
      val d = g.rowLength(u)
      if (d > 0 && ru > rmax * d) {
        p(u) = p.getOrElse(u, 0.0) + alpha * ru
        r(u) = 0.0
        val spread = (1 - alpha) * ru / d
        var e = g.offsets(u)
        while (e < g.offsets(u + 1)) {
          val v = g.colIdx(e)
          val rv = r.getOrElse(v, 0.0) + spread
          r(v) = rv
          if (!inQueue(v) && g.rowLength(v) > 0 && rv > rmax * g.rowLength(v)) {
            queue.enqueue(v); inQueue(v) = true
          }
          e += 1
        }
      } else if (d == 0 && ru > 0) {
        // dangling: the walk terminates here with its remaining mass
        p(u) = p.getOrElse(u, 0.0) + alpha * ru
        r(u) = 0.0
      }
    }
    // fold leftover sub-threshold residue into reserves with weight α —
    // the standard "settle" step, tightens the approximation for free.
    r.foreach { case (u, ru) => if (ru > 0) p(u.toInt) = p.getOrElse(u.toInt, 0.0) + alpha * ru }
    p
  }

  /** All-sources approximate PPR: a sparse row per node. */
  def allSources(g: Graph, alpha: Double, rmax: Double): Array[mutable.LongMap[Double]] = {
    val c = g.adjacency
    Array.tabulate(c.rows)(s => push(c, s, alpha, rmax))
  }
}
