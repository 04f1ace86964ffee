package repro.svd

import repro.graph.Graph
import repro.linalg.{Dense, Mat}

/** Randomized Block-Krylov SVD (Musco & Musco, NIPS'15), driver-local
  * over any [[Mat]].
  *
  * Build the Krylov space `K = [AG, (AAᵀ)AG, …, (AAᵀ)^{q−1}AG]` with a
  * Gaussian start block `G` (cols×k′), orthonormalize (Gram-whitening, per
  * block for numerical stability and once more for the union), project:
  * `Z = AᵀQ`, `M = ZᵀZ = Qᵀ(AAᵀ)Q`, eigendecompose the small `M`
  * ([[Dense.eigSym]]: Householder tridiagonalization + implicit QL), and
  * read off `U = QW`, `σ = √λ`, `V = AᵀUΣ⁻¹ = ZWΣ⁻¹`, so
  * `A ≈ UΣVᵀ` with the (1+ε)·σ_{k′+1} spectral guarantee the ApproxPPR
  * error bound (Theorem 1) builds on.
  *
  * The products with A run on the operator; every other step works on
  * n×s blocks with `s ≤ k′·q`, so the Krylov union takes 8·n·k′·q bytes.
  */
object BKSVD {

  /** `A ≈ U · diag(sigma) · Vᵀ`; U is rows×k′ and V is cols×k′ (columns
    * past the numerical rank are zero), sigma descending and zero-padded.
    */
  final case class Result(u: Array[Array[Double]], sigma: Array[Double], v: Array[Array[Double]])

  /** Krylov iteration count from the error threshold ε — the `log n / √ε`
    * schedule of the paper's complexity analysis, clamped to keep the
    * projected problem small.
    */
  def iters(n: Long, eps: Double): Int =
    math.max(2, math.min(6, math.ceil(math.log(n.toDouble + 1) / (2.0 * math.sqrt(eps))).toInt))

  /** SVD of a graph's adjacency matrix with q = [[iters]](n, ε) blocks. */
  def apply(g: Graph, kPrime: Int, eps: Double, seed: Long = 20): Result =
    apply(g.adjacency, kPrime, iters(g.n, eps), seed)

  /** SVD of `a` from `q` Krylov blocks of width `kPrime`. */
  def apply(a: Mat, kPrime: Int, q: Int, seed: Long): Result = {
    require(kPrime >= 1 && q >= 1, s"need kPrime >= 1 and q >= 1, got kPrime=$kPrime, q=$q")
    // Krylov blocks, each whitened before powering on (classic re-orth).
    val blocks = Iterator.iterate(whiten(a.mult(gaussian(a.cols, kPrime, seed))))(
      b => whiten(a.mult(a.multT(b)))).take(q).toArray
    val qMat = whiten(Array.tabulate(a.rows)(i => blocks.flatMap(_(i))))

    val z = a.multT(qMat)
    val eig = Dense.eigSym(Dense.gram(z))
    val r = eig.values.length
    val take = math.min(kPrime, r)
    val sigma = Array.tabulate(kPrime)(j =>
      if (j < take) math.sqrt(math.max(eig.values(j), 0.0)) else 0.0)
    // U = Q·W and V = Z·W·Σ⁻¹, with W padded to r×kPrime.
    val w = Array.tabulate(r, kPrime)((i, j) => if (j < take) eig.vectors(i)(j) else 0.0)
    val wScaled = Array.tabulate(r, kPrime)((i, j) =>
      if (j < take && sigma(j) > 1e-12) eig.vectors(i)(j) / sigma(j) else 0.0)
    Result(times(qMat, w, kPrime), sigma, times(z, wScaled, kPrime))
  }

  /** Deterministic N(0,1) block: row i is a pure function of (seed, i). */
  def gaussian(rows: Int, k: Int, seed: Long): Array[Array[Double]] =
    Array.tabulate(rows) { i =>
      val rng = new scala.util.Random(seed * 1000003L + i * 7919L)
      Array.fill(k)(rng.nextGaussian())
    }

  /** Orthonormalize the columns of a tall-skinny block via Gram-whitening
    * (rank-deficient directions dropped).
    */
  def whiten(x: Array[Array[Double]]): Array[Array[Double]] =
    Dense.matmul(x, Dense.whitener(Dense.gram(x)))

  /** `X · W` for an r×k `W`; r = 0 (no numerical rank) gives zeros. */
  private def times(x: Array[Array[Double]], w: Array[Array[Double]], k: Int): Array[Array[Double]] =
    if (w.isEmpty) Array.ofDim[Double](x.length, k) else Dense.matmul(x, w)
}
