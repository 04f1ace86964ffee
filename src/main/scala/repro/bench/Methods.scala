package repro.bench

import repro.baselines._
import repro.core.{ApproxPPR, NRP}
import repro.graph.Graph

/** Registry of every embedding method in the evaluation, with a uniform
  * `(graph, k, seed) → Emb` signature. The subsets mirror the paper's
  * findings: methods that materialize n×n objects or train per-walk are
  * excluded from the larger graphs (as in §5, "we exclude a method if it
  * cannot report results within 7 days" — scaled to our container).
  */
object Methods {

  final case class Spec(name: String, run: (Graph, Int, Long) => Emb)

  /** NRP with paper defaults at dimensionality k. */
  val nrp: Spec = Spec("NRP", (g, k, seed) => {
    val r = NRP(g, NRP.Params(k = k, seed = seed))
    Emb(r.x, r.y)
  })

  /** The un-reweighted baseline (Algorithm 1 alone) — NRP with ℓ₂ = 0. */
  val approxPpr: Spec = Spec("ApproxPPR", (g, k, seed) => {
    val e = ApproxPPR(g, math.max(1, k / 2), seed = seed)
    Emb(e.x, e.y)
  })

  val arope: Spec = Spec("AROPE", (g, k, seed) => AROPE(g, k, seed = seed))

  val randne: Spec = Spec("RandNE", (g, k, seed) => RandNE(g, k, seed = seed))

  val strap: Spec = Spec("STRAP", (g, k, seed) => STRAP(g, k, seed = seed))

  val netmf: Spec = Spec("NetMF", (g, k, seed) => NetMF(g, k, seed = seed))

  val deepwalk: Spec = Spec("DeepWalk", (g, k, seed) => DeepWalkLite(g, k, seed = seed))

  val app: Spec = Spec("APP", (g, k, seed) => APPLite(g, k, seed = seed))

  val dngr: Spec = Spec("DNGR", (g, k, seed) => DNGRLite(g, k, seed = seed))

  /** All methods, NRP first (the paper's ordering). */
  val all: Seq[Spec] = Seq(nrp, approxPpr, arope, randne, strap, netmf, deepwalk, app, dngr)

  /** The subset runnable on medium graphs within this container's budget. */
  val mediumSet: Seq[Spec] = Seq(nrp, approxPpr, arope, randne, strap, app)

  /** The subset runnable on the largest graph (twitter-lite). */
  val largeSet: Seq[Spec] = Seq(nrp, approxPpr, arope, randne)
}
