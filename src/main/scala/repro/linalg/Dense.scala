package repro.linalg

/** Local dense linear-algebra kernels, written from scratch.
  *
  * These back the *small* projected problems inside the randomized
  * block-Krylov SVD ([[repro.svd.BKSVD]]) — Gram matrices, whitening,
  * and symmetric eigendecompositions of s×s matrices with s ≤ k′·q
  * (384 at the paper's default k′ = 64, q = 6) — plus the driver-local
  * reference math used throughout the test suites. Matrices are row-major
  * `Array[Array[Double]]`; all operations are pure (inputs untouched).
  */
object Dense {

  /** Dense matrix product `A · B` (dims: (r×s)·(s×c) → r×c). */
  def matmul(a: Array[Array[Double]], b: Array[Array[Double]]): Array[Array[Double]] = {
    val r = a.length; val s = if (r == 0) 0 else a(0).length
    val c = if (b.length == 0) 0 else b(0).length
    require(b.length == s, s"matmul dim mismatch: ${r}x$s vs ${b.length}x$c")
    val out = Array.ofDim[Double](r, c)
    var i = 0
    while (i < r) {
      val ai = a(i); val oi = out(i)
      var l = 0
      while (l < s) {
        val ail = ai(l)
        if (ail != 0.0) {
          val bl = b(l)
          var j = 0
          while (j < c) { oi(j) += ail * bl(j); j += 1 }
        }
        l += 1
      }
      i += 1
    }
    out
  }

  /** Matrix transpose. */
  def transpose(a: Array[Array[Double]]): Array[Array[Double]] = {
    val r = a.length; val c = if (r == 0) 0 else a(0).length
    val out = Array.ofDim[Double](c, r)
    var i = 0
    while (i < r) { var j = 0; while (j < c) { out(j)(i) = a(i)(j); j += 1 }; i += 1 }
    out
  }

  /** Gram matrix `AᵀA` (s×s for an r×s input). */
  def gram(a: Array[Array[Double]]): Array[Array[Double]] = {
    val r = a.length; val s = if (r == 0) 0 else a(0).length
    val out = Array.ofDim[Double](s, s)
    var i = 0
    while (i < r) {
      val ai = a(i)
      var p = 0
      while (p < s) {
        val aip = ai(p)
        if (aip != 0.0) {
          val op = out(p)
          var q = p
          while (q < s) { op(q) += aip * ai(q); q += 1 }
        }
        p += 1
      }
      i += 1
    }
    var p = 0
    while (p < s) { var q = p + 1; while (q < s) { out(q)(p) = out(p)(q); q += 1 }; p += 1 }
    out
  }

  /** Inner product of two equal-length vectors. */
  def dot(x: Array[Double], y: Array[Double]): Double = {
    var s = 0.0; var i = 0
    while (i < x.length) { s += x(i) * y(i); i += 1 }
    s
  }

  /** `x + c·y`, returned as a new vector. */
  def axpy(x: Array[Double], c: Double, y: Array[Double]): Array[Double] = {
    val out = new Array[Double](x.length)
    var i = 0
    while (i < x.length) { out(i) = x(i) + c * y(i); i += 1 }
    out
  }

  /** `c · x`, returned as a new vector. */
  def scale(x: Array[Double], c: Double): Array[Double] = {
    val out = new Array[Double](x.length)
    var i = 0
    while (i < x.length) { out(i) = c * x(i); i += 1 }
    out
  }

  /** Result of [[eigSym]]: eigenvalues in descending order with matching
    * eigenvectors as *columns* of `vectors` (`vectors(i)(j)` = component i
    * of eigenvector j).
    */
  final case class EigSym(values: Array[Double], vectors: Array[Array[Double]])

  /** Symmetric eigendecomposition: Householder tridiagonalization, then
    * implicit-shift QL with accumulated rotations (the EISPACK `tred2` /
    * `tql2` pair; Golub & Van Loan §8.3), about 9s³ flops in one pass.
    *
    * The transformation is held transposed (`z(j)` is eigenvector j), so
    * every O(s³) loop, each Givens step included, runs along two
    * contiguous rows. Each eigenvector's sign is fixed: its largest-|entry|
    * component (lowest index on ties) is positive. Equal eigenvalues keep
    * the order QL leaves them in, so the output is a pure function of the
    * input.
    *
    * A run's first solves execute before the JIT has compiled them. So the
    * passes are split into per-step methods and BLAS-1 kernels, which the
    * JIT compiles after a few hundred calls (loops inlined in one long
    * method would wait for on-stack replacement), and they call
    * `java.lang.Math`, whose `abs` and `sqrt` the interpreter runs as
    * intrinsics.
    *
    * @throws IllegalArgumentException if `m` is not square, has a NaN or
    *   infinite entry, or is not symmetric to 1e-12·max|m_ij|
    */
  def eigSym(m: Array[Array[Double]]): EigSym = {
    val s = m.length
    validateSymmetric(m)
    // z = mᵀ: the reduction reads m's lower triangle through z's rows.
    val z = transpose(m)
    val d = new Array[Double](s)
    val e = new Array[Double](s)
    tridiagonalize(z, d, e)
    diagonalize(z, d, e)
    var j = 0
    while (j < s) {
      val zj = z(j)
      var big = 0
      var k = 1
      while (k < s) { if (Math.abs(zj(k)) > Math.abs(zj(big))) big = k; k += 1 }
      if (zj(big) < 0) { k = 0; while (k < s) { zj(k) = -zj(k); k += 1 } }
      j += 1
    }
    // Stable insertion sort of the indices by descending eigenvalue.
    val order = Array.range(0, s)
    j = 1
    while (j < s) {
      val o = order(j)
      var i = j
      while (i > 0 && d(order(i - 1)) < d(o)) { order(i) = order(i - 1); i -= 1 }
      order(i) = o
      j += 1
    }
    val values = new Array[Double](s)
    val vectors = Array.ofDim[Double](s, s)
    j = 0
    while (j < s) {
      val zj = z(order(j))
      values(j) = d(order(j))
      var i = 0
      while (i < s) { vectors(i)(j) = zj(i); i += 1 }
      j += 1
    }
    EigSym(values, vectors)
  }

  /** Rejects a non-square, non-finite or asymmetric input to [[eigSym]]. */
  private def validateSymmetric(m: Array[Array[Double]]): Unit = {
    def reject(msg: String): Nothing = throw new IllegalArgumentException(msg)
    val s = m.length
    var amax = 0.0
    var i = 0
    while (i < s) {
      if (m(i).length != s) reject(s"eigSym needs a square matrix: row $i has ${m(i).length} entries, not $s")
      var j = 0
      while (j < s) {
        val a = m(i)(j)
        val abs = Math.abs(a)
        if (!(abs <= Double.MaxValue)) reject(s"eigSym needs finite entries: m($i)($j) = $a") // NaN or ±∞
        amax = Math.max(amax, abs)
        j += 1
      }
      i += 1
    }
    i = 0
    while (i < s) {
      var j = 0
      while (j < i) {
        if (Math.abs(m(i)(j) - m(j)(i)) > 1e-12 * amax)
          reject(s"eigSym needs a symmetric matrix: m($i)($j) = ${m(i)(j)} but m($j)($i) = ${m(j)(i)}")
        j += 1
      }
      i += 1
    }
  }

  /** Householder reduction of the symmetric matrix held in `z` (`tred2`):
    * on return `d` is the diagonal of the tridiagonal T, `e(i)` its
    * subdiagonal entry (i−1, i), and row j of `z` is column j of the
    * orthogonal Q with m = Q·T·Qᵀ.
    */
  private def tridiagonalize(z: Array[Array[Double]], d: Array[Double], e: Array[Double]): Unit = {
    val s = z.length
    if (s == 0) return
    var j = 0
    while (j < s) { d(j) = z(j)(s - 1); j += 1 }
    var i = s - 1
    while (i > 0) { reflect(z, d, e, i); i -= 1 }
    i = 0
    while (i < s - 1) { accumulate(z, d, i); i += 1 }
    j = 0
    while (j < s) { d(j) = z(j)(s - 1); z(j)(s - 1) = 0.0; j += 1 }
    z(s - 1)(s - 1) = 1.0
    e(0) = 0.0
  }

  /** Householder step i of [[tridiagonalize]]: zeroes row i left of the
    * subdiagonal, updating the leading i×i block; `d` holds row i on entry.
    */
  private def reflect(z: Array[Array[Double]], d: Array[Double], e: Array[Double], i: Int): Unit = {
    var h = 0.0
    var scale = 0.0
    var k = 0
    while (k < i) { scale += Math.abs(d(k)); k += 1 }
    if (scale == 0.0) {
      e(i) = d(i - 1)
      var j = 0
      while (j < i) { d(j) = z(j)(i - 1); z(j)(i) = 0.0; z(i)(j) = 0.0; j += 1 }
    } else {
      // Householder vector, scaled against under/overflow.
      k = 0
      while (k < i) { d(k) /= scale; h += d(k) * d(k); k += 1 }
      val f = d(i - 1)
      val g = if (f > 0) -Math.sqrt(h) else Math.sqrt(h)
      e(i) = scale * g
      h -= f * g
      d(i - 1) = f - g
      java.util.Arrays.fill(e, 0, i, 0.0)
      // e = (lower triangle of the remaining block) · d.
      var j = 0
      while (j < i) {
        val zj = z(j)
        z(i)(j) = d(j)
        e(j) += zj(j) * d(j) + dotRange(zj, d, j + 1, i)
        addScaled(e, d(j), zj, j + 1, i)
        j += 1
      }
      j = 0
      while (j < i) { e(j) /= h; j += 1 }
      val hh = dotRange(e, d, 0, i) / (h + h)
      addScaled(e, -hh, d, 0, i)
      // Rank-2 update of the remaining block.
      j = 0
      while (j < i) {
        val zj = z(j)
        addScaled(zj, -d(j), e, j, i)
        addScaled(zj, -e(j), d, j, i)
        d(j) = zj(i - 1)
        zj(i) = 0.0
        j += 1
      }
    }
    d(i) = h
  }

  /** Folds the reflection of step i + 1, stored in row i + 1 of `z` with
    * its h in d(i + 1), into the leading (i+1)×(i+1) block of Q.
    */
  private def accumulate(z: Array[Array[Double]], d: Array[Double], i: Int): Unit = {
    val s = z.length
    val zi = z(i); val zi1 = z(i + 1)
    zi(s - 1) = zi(i)
    zi(i) = 1.0
    val h = d(i + 1)
    if (h != 0.0) {
      var k = 0
      while (k <= i) { d(k) = zi1(k) / h; k += 1 }
      var j = 0
      while (j <= i) { addScaled(z(j), -dotRange(zi1, z(j), 0, i + 1), d, 0, i + 1); j += 1 }
    }
    java.util.Arrays.fill(zi1, 0, i + 1, 0.0)
  }

  /** Implicit-shift QL on the tridiagonal (`d`, `e`) from [[tridiagonalize]]
    * (`tql2`): on return `d` holds the eigenvalues, unsorted, and row j of
    * `z` the eigenvector of `d(j)`.
    */
  private def diagonalize(z: Array[Array[Double]], d: Array[Double], e: Array[Double]): Unit = {
    val s = z.length
    if (s == 0) return
    System.arraycopy(e, 1, e, 0, s - 1)
    e(s - 1) = 0.0
    val eps = math.ulp(1.0)
    var f = 0.0
    var tst1 = 0.0
    var l = 0
    while (l < s) {
      // Split off at the first negligible subdiagonal entry.
      tst1 = Math.max(tst1, Math.abs(d(l)) + Math.abs(e(l)))
      var m = l
      while (m < s - 1 && Math.abs(e(m)) > eps * tst1) m += 1
      var iter = 0
      while (m > l && Math.abs(e(l)) > eps * tst1) {
        iter += 1
        if (iter > 100) throw new ArithmeticException(s"eigSym: QL did not converge at eigenvalue $l")
        f += qlStep(z, d, e, l, m)
      }
      d(l) += f
      e(l) = 0.0
      l += 1
    }
  }

  /** One implicit-shift QL step on the unreduced block l..m of the
    * tridiagonal, rotating the rows of `z` along. Returns the shift, which
    * it has taken off d(l + 2 until s).
    */
  private def qlStep(z: Array[Array[Double]], d: Array[Double], e: Array[Double], l: Int, m: Int): Double = {
    // Shift from the leading 2×2.
    var g = d(l)
    var p = (d(l + 1) - g) / (2.0 * e(l))
    var r = hypot(p, 1.0)
    if (p < 0) r = -r
    d(l) = e(l) / (p + r)
    d(l + 1) = e(l) * (p + r)
    val dl1 = d(l + 1)
    val shift = g - d(l)
    var i = l + 2
    while (i < d.length) { d(i) -= shift; i += 1 }
    // One sweep of Givens rotations, bottom to top.
    p = d(m)
    var c = 1.0; var c2 = c; var c3 = c
    val el1 = e(l + 1)
    var sn = 0.0; var s2 = 0.0
    i = m - 1
    while (i >= l) {
      c3 = c2; c2 = c; s2 = sn
      g = c * e(i)
      val h = c * p
      r = hypot(p, e(i))
      e(i + 1) = sn * r
      sn = e(i) / r
      c = p / r
      p = c * d(i) - sn * g
      d(i + 1) = h + sn * (c * g + sn * d(i))
      rotate(z(i), z(i + 1), c, sn)
      i -= 1
    }
    p = -sn * s2 * c3 * el1 * e(l) / dl1
    e(l) = sn * p
    d(l) = c * p
    shift
  }

  // BLAS-1 kernels of the two passes; see eigSym on why they are methods.

  /** Σ x(k)·y(k) over k in [from, until). */
  private def dotRange(x: Array[Double], y: Array[Double], from: Int, until: Int): Double = {
    var acc = 0.0; var k = from
    while (k < until) { acc += x(k) * y(k); k += 1 }
    acc
  }

  /** y(k) += a·x(k) over k in [from, until). */
  private def addScaled(y: Array[Double], a: Double, x: Array[Double], from: Int, until: Int): Unit = {
    var k = from
    while (k < until) { y(k) += a * x(k); k += 1 }
  }

  /** Givens rotation of two rows: (x, y) ← (c·x − s·y, s·x + c·y). */
  private def rotate(x: Array[Double], y: Array[Double], c: Double, s: Double): Unit = {
    var k = 0
    while (k < x.length) {
      val xk = x(k); val yk = y(k)
      x(k) = c * xk - s * yk
      y(k) = s * xk + c * yk
      k += 1
    }
  }

  /** √(a² + b²) without under/overflow; unlike `math.hypot`, cheap even
    * before the JIT compiles it.
    */
  private def hypot(a: Double, b: Double): Double = {
    val x = Math.abs(a); val y = Math.abs(b)
    if (x > y) { val r = y / x; x * Math.sqrt(1.0 + r * r) }
    else if (y != 0.0) { val r = x / y; y * Math.sqrt(1.0 + r * r) }
    else 0.0
  }

  private val WhitenRelTol = 1e-10

  /** Whitening transform from a Gram matrix.
    *
    * Given `G = BᵀB` for a tall-skinny `B`, returns `W` such that the
    * columns of `B·W` are orthonormal and span the (numerically)
    * significant column space of `B`. Directions with eigenvalue below
    * `WhitenRelTol · λ_max` are dropped, so rank-deficient blocks (common once
    * Krylov iterations converge) are handled gracefully. `W` is s×r with
    * r = numerical rank.
    */
  def whitener(gramM: Array[Array[Double]]): Array[Array[Double]] = {
    val eig = eigSym(gramM)
    val lmax = math.max(eig.values.headOption.getOrElse(0.0), 0.0)
    val keep = eig.values.indices.filter(j => eig.values(j) > WhitenRelTol * math.max(lmax, 1e-300))
    val s = gramM.length
    Array.tabulate(s, keep.length)((i, jj) => eig.vectors(i)(keep(jj)) / math.sqrt(eig.values(keep(jj))))
  }
}
