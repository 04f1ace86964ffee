package repro.linalg

import org.scalatest.funsuite.AnyFunSuite
import org.scalacheck.{Gen, Prop, Test => SCTest}
import org.scalacheck.Prop.propBoolean
import scala.util.Random

/** Unit tests for the local dense kernels backing BKSVD and the
  * reweighting math. ScalaCheck properties are driven through
  * `Prop`/`Test.check` directly (no scalatestplus bridge offline).
  */
class DenseSpec extends AnyFunSuite {

  /** Run a ScalaCheck property and assert it passed. */
  private def checkProp(p: Prop): Unit = {
    val res = SCTest.check(SCTest.Parameters.default.withMinSuccessfulTests(30), p)
    assert(res.passed, res.status.toString)
  }

  private def approx(a: Double, b: Double, tol: Double = 1e-9): Boolean = math.abs(a - b) <= tol

  private def randMat(r: Int, c: Int, seed: Long): Array[Array[Double]] = {
    val rng = new Random(seed)
    Array.fill(r, c)(rng.nextGaussian())
  }

  test("matmul matches hand-computed 2x2") {
    val a = Array(Array(1.0, 2.0), Array(3.0, 4.0))
    val b = Array(Array(5.0, 6.0), Array(7.0, 8.0))
    val c = Dense.matmul(a, b)
    assert(c(0).toSeq == Seq(19.0, 22.0))
    assert(c(1).toSeq == Seq(43.0, 50.0))
  }

  test("matmul with identity is identity") {
    val a = randMat(5, 5, 1)
    val id = Array.tabulate(5, 5)((i, j) => if (i == j) 1.0 else 0.0)
    val c = Dense.matmul(a, id)
    for (i <- 0 until 5; j <- 0 until 5) assert(approx(c(i)(j), a(i)(j)))
  }

  test("matmul rejects mismatched dimensions") {
    intercept[IllegalArgumentException] {
      Dense.matmul(randMat(2, 3, 1), randMat(4, 2, 2))
    }
  }

  test("transpose is an involution") {
    val a = randMat(4, 7, 2)
    val t2 = Dense.transpose(Dense.transpose(a))
    for (i <- 0 until 4; j <- 0 until 7) assert(approx(t2(i)(j), a(i)(j)))
  }

  test("transpose swaps indices") {
    val a = randMat(3, 5, 3)
    val t = Dense.transpose(a)
    for (i <- 0 until 3; j <- 0 until 5) assert(approx(t(j)(i), a(i)(j)))
  }

  test("gram equals AᵀA") {
    val a = randMat(6, 4, 4)
    val g = Dense.gram(a)
    val ref = Dense.matmul(Dense.transpose(a), a)
    for (i <- 0 until 4; j <- 0 until 4) assert(approx(g(i)(j), ref(i)(j)))
  }

  test("gram is symmetric") {
    val g = Dense.gram(randMat(8, 5, 5))
    for (i <- 0 until 5; j <- 0 until 5) assert(approx(g(i)(j), g(j)(i)))
  }

  test("dot and axpy and scale basics") {
    val x = Array(1.0, 2.0, 3.0)
    val y = Array(4.0, 5.0, 6.0)
    assert(approx(Dense.dot(x, y), 32.0))
    assert(Dense.axpy(x, 2.0, y).toSeq == Seq(9.0, 12.0, 15.0))
    assert(Dense.scale(x, -1.0).toSeq == Seq(-1.0, -2.0, -3.0))
  }

  test("eigSym recovers eigenvalues of a diagonal matrix") {
    val d = Array(Array(3.0, 0.0, 0.0), Array(0.0, -1.0, 0.0), Array(0.0, 0.0, 7.0))
    val e = Dense.eigSym(d)
    assert(e.values.toSeq.map(v => math.round(v * 1e9) / 1e9) == Seq(7.0, 3.0, -1.0))
  }

  test("eigSym reconstructs a random symmetric matrix") {
    val b = randMat(6, 6, 7)
    val s = Array.tabulate(6, 6)((i, j) => b(i)(j) + b(j)(i))
    val e = Dense.eigSym(s)
    // S = V Λ Vᵀ
    val lambdaV = Array.tabulate(6, 6)((i, j) => e.vectors(i)(j) * e.values(j))
    val rec = Dense.matmul(lambdaV, Dense.transpose(e.vectors))
    for (i <- 0 until 6; j <- 0 until 6) assert(approx(rec(i)(j), s(i)(j), 1e-7))
  }

  test("eigSym eigenvectors are orthonormal") {
    val b = randMat(5, 5, 8)
    val s = Array.tabulate(5, 5)((i, j) => b(i)(j) + b(j)(i))
    val e = Dense.eigSym(s)
    val vtv = Dense.gram(e.vectors)
    for (i <- 0 until 5; j <- 0 until 5)
      assert(approx(vtv(i)(j), if (i == j) 1.0 else 0.0, 1e-8))
  }

  test("eigSym eigenvalues are sorted descending") {
    val b = randMat(7, 7, 9)
    val s = Array.tabulate(7, 7)((i, j) => b(i)(j) + b(j)(i))
    val vals = Dense.eigSym(s).values
    assert(vals.toSeq == vals.toSeq.sortBy(-(_: Double)))
  }

  test("eigSym trace is preserved (property)") {
    checkProp(Prop.forAll(Gen.choose(2, 8), Gen.choose(0L, 1000L)) { (n: Int, seed: Long) =>
      val b = randMat(n, n, seed)
      val s = Array.tabulate(n, n)((i, j) => b(i)(j) + b(j)(i))
      val trace = (0 until n).map(i => s(i)(i)).sum
      val e = Dense.eigSym(s)
      approx(e.values.sum, trace, 1e-6 * math.max(1.0, math.abs(trace)))
    })
  }

  test("gram positive semidefiniteness (property)") {
    checkProp(Prop.forAll(Gen.choose(2, 10), Gen.choose(1, 5), Gen.choose(0L, 1000L)) {
      (r: Int, c: Int, seed: Long) =>
        val e = Dense.eigSym(Dense.gram(randMat(r, c, seed)))
        e.values.forall(_ > -1e-8)
    })
  }

  // ---- eigSym against the Jacobi oracle ---------------------------------

  private def maxAbs(m: Array[Array[Double]]): Double =
    m.foldLeft(0.0)((acc, r) => r.foldLeft(acc)((a, v) => math.max(a, math.abs(v))))

  /** Largest |(VΛVᵀ − A)_ij| and |(VᵀV − I)_ij|. */
  private def residuals(a: Array[Array[Double]], e: Dense.EigSym): (Double, Double) = {
    val s = a.length
    val vl = Array.tabulate(s, s)((i, j) => e.vectors(i)(j) * e.values(j))
    val rec = Dense.matmul(vl, Dense.transpose(e.vectors))
    val vtv = Dense.gram(e.vectors)
    (maxAbs(Array.tabulate(s, s)((i, j) => rec(i)(j) - a(i)(j))),
     maxAbs(Array.tabulate(s, s)((i, j) => vtv(i)(j) - (if (i == j) 1.0 else 0.0))))
  }

  /** An s×s random symmetric matrix, or (gram) the Gram of an r×s block, of rank ≤ r. */
  private def symInput(s: Int, gram: Boolean, r: Int, seed: Long): Array[Array[Double]] =
    if (gram) Dense.gram(randMat(r, s, seed))
    else { val b = randMat(s, s, seed); Array.tabulate(s, s)((i, j) => b(i)(j) + b(j)(i)) }

  test("eigSym agrees with the Jacobi oracle on symmetric matrices and rank-deficient Grams (property)") {
    val gen = for {
      s <- Gen.choose(1, 48); gram <- Gen.oneOf(false, true)
      r <- Gen.choose(1, s); seed <- Gen.choose(0L, 100000L)
    } yield (s, gram, r, seed)
    checkProp(Prop.forAll(gen) { case (s, gram, r, seed) =>
      val a = symInput(s, gram, r, seed)
      val e = Dense.eigSym(a)
      val o = Jacobi.eigSym(a)
      val scale = math.max(math.abs(o.values.head), math.abs(o.values.last))
      val valuesAgree = e.values.indices.forall(j => math.abs(e.values(j) - o.values(j)) <= 1e-10 * scale)
      val (rec, orth) = residuals(a, e)
      // Where λ_j is separated from its neighbours, v_j is unique up to sign.
      def gap(j: Int): Double = Seq(j - 1, j + 1).filter(o.values.indices.contains)
        .map(i => math.abs(o.values(i) - o.values(j))).minOption.getOrElse(Double.PositiveInfinity)
      val vectorsAgree = e.values.indices.filter(j => gap(j) > 1e-3 * scale).forall { j =>
        val dotj = (0 until s).map(i => e.vectors(i)(j) * o.vectors(i)(j)).sum
        (0 until s).forall(i => math.abs(e.vectors(i)(j) - math.signum(dotj) * o.vectors(i)(j)) <= 1e-6)
      }
      (valuesAgree && rec <= 1e-10 * math.max(scale, 1.0) && orth <= 1e-12 * s && vectorsAgree) :|
        s"s=$s gram=$gram r=$r seed=$seed rec=$rec orth=$orth values=$valuesAgree vectors=$vectorsAgree"
    })
  }

  test("eigSym of the 0×0 and 1×1 matrices") {
    val empty = Dense.eigSym(Array.empty[Array[Double]])
    assert(empty.values.isEmpty && empty.vectors.isEmpty)
    val one = Dense.eigSym(Array(Array(-2.5)))
    assert(one.values.toSeq == Seq(-2.5) && one.vectors.map(_.toSeq).toSeq == Seq(Seq(1.0)))
  }

  test("eigSym of the zero matrix and the identity") {
    for ((c, name) <- Seq((0.0, "zero"), (1.0, "identity"))) {
      val a = Array.tabulate(6, 6)((i, j) => if (i == j) c else 0.0)
      val e = Dense.eigSym(a)
      assert(e.values.forall(_ == c), name)
      val (rec, orth) = residuals(a, e)
      assert(rec <= 1e-15 && orth <= 1e-15, s"$name rec=$rec orth=$orth")
    }
  }

  test("eigSym of a diagonal with repeated values spans each eigenspace") {
    val diag = Array(2.0, 5.0, 2.0, -1.0, 5.0, 2.0)
    val a = Array.tabulate(6, 6)((i, j) => if (i == j) diag(i) else 0.0)
    val e = Dense.eigSym(a)
    assert(e.values.toSeq == diag.toSeq.sortBy(-_))
    val (rec, orth) = residuals(a, e)
    assert(rec <= 1e-14 && orth <= 1e-14, s"rec=$rec orth=$orth")
    // each eigenvector lies in the coordinate eigenspace of its eigenvalue
    for (j <- 0 until 6; i <- 0 until 6 if diag(i) != e.values(j))
      assert(e.vectors(i)(j) == 0.0, s"v_$j has a component on e_$i")
  }

  test("eigSym fixes each eigenvector's sign and is bitwise repeatable") {
    val a = symInput(30, gram = false, 30, seed = 17)
    val e = Dense.eigSym(a)
    for (j <- 0 until 30) {
      val col = (0 until 30).map(i => e.vectors(i)(j))
      val big = col.indices.maxBy(i => math.abs(col(i))) // first index among ties
      assert(col(big) > 0, s"v_$j's largest entry ${col(big)} is negative")
    }
    // a tie: the λ = 0 vector ±(1, −1)/√2 takes the sign of its first entry
    val tie = Dense.eigSym(Array(Array(1.0, 1.0), Array(1.0, 1.0)))
    assert(tie.vectors(0)(1) > 0 && tie.vectors(1)(1) == -tie.vectors(0)(1))
    val again = Dense.eigSym(a)
    assert(again.values.toSeq == e.values.toSeq)
    assert(again.vectors.map(_.toSeq).toSeq == e.vectors.map(_.toSeq).toSeq)
  }

  test("eigSym rejects a non-square input") {
    val a = symInput(4, gram = false, 4, seed = 3)
    for ((bad, what) <- Seq((a.take(3), "3x4"), (a.map(_ :+ 0.0), "long rows"),
                            (a.updated(2, a(2).take(3)), "short row"))) {
      val ex = intercept[IllegalArgumentException](Dense.eigSym(bad))
      assert(ex.getMessage.contains("square"), what)
    }
  }

  test("eigSym rejects NaN and infinite entries") {
    val a = symInput(4, gram = false, 4, seed = 4)
    for (v <- Seq(Double.NaN, Double.PositiveInfinity, Double.NegativeInfinity)) {
      val bad = a.map(_.clone()); bad(1)(2) = v; bad(2)(1) = v
      val ex = intercept[IllegalArgumentException](Dense.eigSym(bad))
      assert(ex.getMessage.contains("finite") && ex.getMessage.contains("m(1)(2)"), ex.getMessage)
    }
  }

  test("eigSym rejects an asymmetric input naming the entry, and accepts round-off asymmetry") {
    val a = symInput(5, gram = false, 5, seed = 5)
    val amax = maxAbs(a)
    val bad = a.map(_.clone()); bad(3)(1) += 1e-9 * amax
    val ex = intercept[IllegalArgumentException](Dense.eigSym(bad))
    assert(ex.getMessage.contains("symmetric") && ex.getMessage.contains("m(3)(1)"), ex.getMessage)
    val ok = a.map(_.clone()); ok(3)(1) += 0.5e-12 * amax
    assert(Dense.eigSym(ok).values.length == 5)
  }

  test("whitener orthonormalizes a full-rank tall matrix") {
    val b = randMat(20, 4, 10)
    val w = Dense.whitener(Dense.gram(b))
    val q = Dense.matmul(b, w)
    val qtq = Dense.gram(q)
    for (i <- 0 until 4; j <- 0 until 4)
      assert(approx(qtq(i)(j), if (i == j) 1.0 else 0.0, 1e-8))
  }

  test("whitener drops rank-deficient directions") {
    val b0 = randMat(10, 2, 11)
    // third column = sum of first two → rank 2
    val b = b0.map(r => Array(r(0), r(1), r(0) + r(1)))
    val w = Dense.whitener(Dense.gram(b))
    assert(w(0).length == 2)
    val qtq = Dense.gram(Dense.matmul(b, w))
    for (i <- 0 until 2; j <- 0 until 2)
      assert(approx(qtq(i)(j), if (i == j) 1.0 else 0.0, 1e-8))
  }

  test("svdSmall reconstructs the input") {
    val a = randMat(8, 5, 12)
    val (u, s, v) = Jacobi.svdSmall(a)
    val us = Array.tabulate(8, s.length)((i, j) => u(i)(j) * s(j))
    val rec = Dense.matmul(us, Dense.transpose(v))
    for (i <- 0 until 8; j <- 0 until 5) assert(approx(rec(i)(j), a(i)(j), 1e-7))
  }

  test("svdSmall singular values are nonnegative and descending") {
    val (_, s, _) = Jacobi.svdSmall(randMat(9, 6, 13))
    assert(s.forall(_ >= 0))
    assert(s.toSeq == s.toSeq.sortBy(-(_: Double)))
  }

  test("svdSmall U and V are orthonormal") {
    val (u, _, v) = Jacobi.svdSmall(randMat(10, 4, 14))
    Seq(u, v).foreach { m =>
      val g = Dense.gram(m)
      for (i <- g.indices; j <- g.indices)
        assert(approx(g(i)(j), if (i == j) 1.0 else 0.0, 1e-7))
    }
  }
}
