package repro.linalg

/** Test oracles for the dense eigensolver: cyclic Jacobi, which shares no
  * code with [[Dense.eigSym]], and the exact small SVD built on it.
  */
object Jacobi {

  /** Symmetric eigendecomposition by cyclic Jacobi rotations, in the
    * [[Dense.EigSym]] layout (values descending, vectors as columns).
    * O(s³) per sweep, converging quadratically; the input must be symmetric.
    */
  def eigSym(mIn: Array[Array[Double]], maxSweeps: Int = 64, tol: Double = 1e-12): Dense.EigSym = {
    val s = mIn.length
    val m = mIn.map(_.clone())
    val v = Array.tabulate(s, s)((i, j) => if (i == j) 1.0 else 0.0)
    var sweep = 0
    var off = offDiagNorm(m)
    val base = math.max(frobenius(m), 1e-300)
    while (sweep < maxSweeps && off > tol * base) {
      var p = 0
      while (p < s - 1) {
        var q = p + 1
        while (q < s) {
          val apq = m(p)(q)
          if (math.abs(apq) > 1e-300) {
            val app = m(p)(p); val aqq = m(q)(q)
            val theta = (aqq - app) / (2.0 * apq)
            val t =
              if (theta >= 0) 1.0 / (theta + math.sqrt(1.0 + theta * theta))
              else 1.0 / (theta - math.sqrt(1.0 + theta * theta))
            val c = 1.0 / math.sqrt(1.0 + t * t)
            val sn = t * c
            var i = 0
            while (i < s) {
              val mip = m(i)(p); val miq = m(i)(q)
              m(i)(p) = c * mip - sn * miq
              m(i)(q) = sn * mip + c * miq
              i += 1
            }
            i = 0
            while (i < s) {
              val mpi = m(p)(i); val mqi = m(q)(i)
              m(p)(i) = c * mpi - sn * mqi
              m(q)(i) = sn * mpi + c * mqi
              val vip = v(i)(p); val viq = v(i)(q)
              v(i)(p) = c * vip - sn * viq
              v(i)(q) = sn * vip + c * viq
              i += 1
            }
          }
          q += 1
        }
        p += 1
      }
      off = offDiagNorm(m)
      sweep += 1
    }
    val order = (0 until s).sortBy(i => -m(i)(i))
    val values = order.map(i => m(i)(i)).toArray
    val vectors = Array.tabulate(s, s)((i, j) => v(i)(order(j)))
    Dense.EigSym(values, vectors)
  }

  private def offDiagNorm(m: Array[Array[Double]]): Double = {
    var s = 0.0; var i = 0
    while (i < m.length) {
      var j = 0
      while (j < m.length) { if (i != j) s += m(i)(j) * m(i)(j); j += 1 }
      i += 1
    }
    math.sqrt(s)
  }

  private def frobenius(m: Array[Array[Double]]): Double = {
    var s = 0.0; var i = 0
    while (i < m.length) { var j = 0; while (j < m.length) { s += m(i)(j) * m(i)(j); j += 1 }; i += 1 }
    math.sqrt(s)
  }

  /** Exact SVD of a small dense matrix via the Jacobi eigendecomposition of
    * AᵀA — the oracle for BKSVD. Returns (U, σ, V) with A ≈ U diag(σ) Vᵀ
    * and singular values descending (zeros dropped below `relTol·σ_max`).
    */
  def svdSmall(a: Array[Array[Double]], relTol: Double = 1e-12): (Array[Array[Double]], Array[Double], Array[Array[Double]]) = {
    val eig = eigSym(Dense.gram(a))
    val smax = math.sqrt(math.max(eig.values.headOption.getOrElse(0.0), 0.0))
    val keep = eig.values.indices.filter(j => eig.values(j) > 0 && math.sqrt(eig.values(j)) > relTol * math.max(smax, 1e-300))
    val sigma = keep.map(j => math.sqrt(eig.values(j))).toArray
    val s = a(0).length
    val v = Array.tabulate(s, keep.length)((i, jj) => eig.vectors(i)(keep(jj)))
    val av = Dense.matmul(a, v)
    val u = Array.tabulate(a.length, keep.length)((i, j) => av(i)(j) / sigma(j))
    (u, sigma, v)
  }
}
