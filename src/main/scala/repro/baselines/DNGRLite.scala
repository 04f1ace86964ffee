package repro.baselines

import repro.graph.Graph
import repro.linalg.{Dense, DenseMat}
import repro.ppr.ExactPPR
import scala.util.Random

/** DNGR (Cao et al., AAAI'16), reduced to its essential pipeline: random
  * surfing → PPMI matrix → auto-encoder bottleneck embedding. The
  * auto-encoder is a single-hidden-layer MLP (n → k → n, tanh bottleneck)
  * trained with hand-written backprop SGD — the representative of the
  * neural-network category, which (as the paper reports) requires a dense
  * n×n input and does not scale; small graphs only.
  */
object DNGRLite {

  def apply(g: Graph, k: Int, surfSteps: Int = 6, restart: Double = 0.85,
            epochs: Int = 8, lr: Double = 0.01, seed: Long = 77): Emb = {
    val sym = g.symmetrized
    val n = sym.n.toInt
    val p = ExactPPR.transition(ExactPPR.adjacency(sym))

    // Random surfing: R = Σ_k p_k, p_k = restart·p_{k-1}P + (1−restart)·p_0.
    val r = Array.tabulate(n, n)((i, j) => if (i == j) 1.0 else 0.0)
    val cur = Array.tabulate(n, n)((i, j) => if (i == j) 1.0 else 0.0)
    for (_ <- 1 to surfSteps) {
      val stepped = DenseMat(cur).mult(p) // cur · P
      var i = 0
      while (i < n) {
        var j = 0
        while (j < n) {
          cur(i)(j) = restart * stepped(i)(j) + (if (i == j) 1.0 - restart else 0.0)
          r(i)(j) += cur(i)(j)
          j += 1
        }
        i += 1
      }
    }

    // PPMI transform.
    val rowSum = r.map(_.sum)
    val colSum = new Array[Double](n)
    r.foreach { row => var j = 0; while (j < n) { colSum(j) += row(j); j += 1 } }
    val total = rowSum.sum
    val ppmi = Array.tabulate(n, n) { (i, j) =>
      val v = r(i)(j)
      if (v <= 0 || rowSum(i) <= 0 || colSum(j) <= 0) 0.0
      else math.max(0.0, math.log(v * total / (rowSum(i) * colSum(j))))
    }

    // Auto-encoder n → k → n with tanh bottleneck, MSE loss, SGD.
    val rng = new Random(seed)
    val scale1 = math.sqrt(1.0 / n)
    val w1 = Array.fill(k, n)(rng.nextGaussian() * scale1)
    val b1 = new Array[Double](k)
    val scale2 = math.sqrt(1.0 / k)
    val w2 = Array.fill(n, k)(rng.nextGaussian() * scale2)
    val b2 = new Array[Double](n)
    val order = (0 until n).toArray
    for (_ <- 1 to epochs) {
      shuffleInPlace(order, rng)
      order.foreach { s =>
        val input = ppmi(s)
        // forward
        val h = new Array[Double](k)
        var j = 0
        while (j < k) { h(j) = math.tanh(Dense.dot(w1(j), input) + b1(j)); j += 1 }
        val out = new Array[Double](n)
        var i = 0
        while (i < n) { out(i) = Dense.dot(w2(i), h) + b2(i); i += 1 }
        // backward (MSE): dOut = out − input
        val gH = new Array[Double](k)
        i = 0
        while (i < n) {
          val d = (out(i) - input(i)) / n
          if (d != 0.0) {
            val w2i = w2(i)
            j = 0
            while (j < k) { gH(j) += d * w2i(j); w2i(j) -= lr * d * h(j); j += 1 }
            b2(i) -= lr * d
          }
          i += 1
        }
        j = 0
        while (j < k) {
          val g = gH(j) * (1.0 - h(j) * h(j))
          if (g != 0.0) {
            val w1j = w1(j)
            i = 0
            while (i < n) { val in = input(i); if (in != 0.0) w1j(i) -= lr * g * in; i += 1 }
            b1(j) -= lr * g
          }
          j += 1
        }
      }
    }
    // embedding = bottleneck activation per node
    val e = Array.tabulate(n) { s =>
      val input = ppmi(s)
      Array.tabulate(k)(j => math.tanh(Dense.dot(w1(j), input) + b1(j)))
    }
    Emb.symmetricOf(e)
  }

  private def shuffleInPlace(a: Array[Int], rng: Random): Unit = {
    var i = a.length - 1
    while (i > 0) {
      val j = rng.nextInt(i + 1)
      val t = a(i); a(i) = a(j); a(j) = t
      i -= 1
    }
  }
}
