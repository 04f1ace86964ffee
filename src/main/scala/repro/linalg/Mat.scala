package repro.linalg

import java.util.stream.IntStream

/** A driver-local matrix that multiplies tall-skinny dense blocks — the
  * one operator interface of the reproduction. [[Csr]] carries every
  * graph matrix (adjacency, transition, STRAP's transpose proximity);
  * [[DenseMat]] carries the n×n matrices the dense baselines materialize
  * by design. Blocks are row-major `Array[Array[Double]]`.
  */
trait Mat {
  def rows: Int
  def cols: Int
  /** `M · B` where B is cols×k. */
  def mult(b: Array[Array[Double]]): Array[Array[Double]]
  /** `Mᵀ`. */
  def transpose: Mat
  /** `Mᵀ · B` where B is rows×k, as the row-parallel product of the
    * transpose: each output entry sums its terms in row order, as a
    * scatter over the rows of M would.
    */
  def multT(b: Array[Array[Double]]): Array[Array[Double]] = transpose.mult(b)
}

object Mat {
  /** Column count of a block (0 for a block without rows). */
  private[linalg] def width(b: Array[Array[Double]]): Int = if (b.isEmpty) 0 else b(0).length
}

/** Dense row-major matrix with row-parallel `mult`. */
final case class DenseMat(a: Array[Array[Double]]) extends Mat {
  def rows: Int = a.length
  def cols: Int = Mat.width(a)
  def mult(b: Array[Array[Double]]): Array[Array[Double]] = {
    val k = Mat.width(b)
    val out = Array.ofDim[Double](rows, k)
    IntStream.range(0, rows).parallel().forEach { i =>
      val ai = a(i); val oi = out(i)
      var l = 0
      while (l < cols) {
        val c = ai(l)
        if (c != 0.0) {
          val bl = b(l)
          var j = 0
          while (j < k) { oi(j) += c * bl(j); j += 1 }
        }
        l += 1
      }
    }
    out
  }
  def transpose: DenseMat = DenseMat(Dense.transpose(a))
}

/** Compressed sparse row matrix: row i holds the entries
  * `offsets(i) until offsets(i+1)` of `colIdx`/`values`, with column
  * indices strictly increasing within each row. The fixed order makes
  * every product a pure function of the matrix, whatever order its
  * entries arrived in. Takes 4(rows+1) + 12·nnz bytes.
  */
final class Csr(val rows: Int, val cols: Int, val offsets: Array[Int],
                val colIdx: Array[Int], val values: Array[Double]) extends Mat {

  def nnz: Int = offsets(rows)

  /** Number of stored entries in row i (the out-degree of an adjacency row). */
  def rowLength(i: Int): Int = offsets(i + 1) - offsets(i)

  /** Whether position (i, j) holds a stored entry (binary search of row i). */
  def contains(i: Int, j: Int): Boolean =
    java.util.Arrays.binarySearch(colIdx, offsets(i), offsets(i + 1), j) >= 0

  /** Row-parallel `M · B`. */
  def mult(b: Array[Array[Double]]): Array[Array[Double]] = {
    val k = Mat.width(b)
    val out = Array.ofDim[Double](rows, k)
    IntStream.range(0, rows).parallel().forEach { i =>
      val oi = out(i)
      var e = offsets(i)
      while (e < offsets(i + 1)) {
        val c = values(e); val bl = b(colIdx(e))
        var j = 0
        while (j < k) { oi(j) += c * bl(j); j += 1 }
        e += 1
      }
    }
    out
  }

  /** The positions (i, j) of the stored entries, row by row. */
  def entries: Iterator[(Int, Int)] =
    Iterator.range(0, rows).flatMap(i => Iterator.range(offsets(i), offsets(i + 1)).map(e => (i, colIdx(e))))

  /** The entries at the positions (i, j) where `keep(i, j)` holds. */
  def filter(keep: (Int, Int) => Boolean): Csr = {
    val off = new Array[Int](rows + 1)
    val c = new Array[Int](nnz)
    val v = new Array[Double](nnz)
    var kept = 0
    var i = 0
    while (i < rows) {
      var e = offsets(i)
      while (e < offsets(i + 1)) {
        if (keep(i, colIdx(e))) { c(kept) = colIdx(e); v(kept) = values(e); kept += 1 }
        e += 1
      }
      off(i + 1) = kept
      i += 1
    }
    new Csr(rows, cols, off, java.util.Arrays.copyOf(c, kept), java.util.Arrays.copyOf(v, kept))
  }

  /** `Mᵀ`, built by a counting sort of the entries by column: rows are
    * scanned in order, so every row of the result lists its column indices
    * in increasing order.
    */
  def transpose: Csr = {
    val off = new Array[Int](cols + 1)
    for (e <- 0 until nnz) off(colIdx(e) + 1) += 1
    for (j <- 0 until cols) off(j + 1) += off(j)
    val next = off.clone()
    val (c, v) = (new Array[Int](nnz), new Array[Double](nnz))
    for (i <- 0 until rows; e <- offsets(i) until offsets(i + 1)) {
      val slot = next(colIdx(e))
      c(slot) = i; v(slot) = values(e); next(colIdx(e)) += 1
    }
    new Csr(cols, rows, off, c, v)
  }

  /** `diag(s) · M`: same sparsity, row i's values scaled by `s(i)`. */
  def scaleRows(s: Array[Double]): Csr = {
    val v = new Array[Double](nnz)
    var i = 0
    while (i < rows) {
      var e = offsets(i)
      while (e < offsets(i + 1)) { v(e) = s(i) * values(e); e += 1 }
      i += 1
    }
    new Csr(rows, cols, offsets, colIdx, v)
  }
}

object Csr {

  /** Build from (row, col, value) triples; entries at the same position
    * are summed in arrival order.
    */
  def fromTriples(rows: Int, cols: Int, triples: Iterator[(Int, Int, Double)]): Csr = {
    val entries = triples.map { case t @ (r, c, _) =>
      require(r >= 0 && r < rows && c >= 0 && c < cols, s"entry ($r, $c) lies outside a $rows×$cols matrix")
      t
    }.toArray.sortBy { case (r, c, _) => r.toLong * cols + c } // stable
    val offsets = new Array[Int](rows + 1)
    val colIdx = new Array[Int](entries.length)
    val values = new Array[Double](entries.length)
    var nnz = 0
    entries.indices.foreach { e =>
      val (r, c, v) = entries(e)
      if (e > 0 && entries(e - 1)._1 == r && entries(e - 1)._2 == c) values(nnz - 1) += v
      else { colIdx(nnz) = c; values(nnz) = v; nnz += 1 }
      offsets(r + 1) = nnz
    }
    var i = 0 // rows without entries start where the previous row ended
    while (i < rows) { offsets(i + 1) = math.max(offsets(i + 1), offsets(i)); i += 1 }
    new Csr(rows, cols, offsets, java.util.Arrays.copyOf(colIdx, nnz), java.util.Arrays.copyOf(values, nnz))
  }
}
