package nrpbench

import repro.core.NRP

/** One benchmark workload: the graph the generator makes from the run's
  * seed, and the NRP settings run on it.
  *
  * Every NRP.apply here costs seconds of Spark scheduling whatever the
  * graph size (each Krylov block and each transition step is a chain of
  * shuffles), so the graphs are small and ℓ₁/ε are the paper's cheaper
  * sweep values; ε = 0.9 with n < 296 gives q = 3 Krylov blocks. They
  * keep every stage kind of the paper-default pipeline.
  *
  * @param aucFloor a pass whose link-prediction AUC is not above this
  *   fails; about 0.1 under the AUCs seen while the benchmark was built
  *   (lp-wiki 0.81–0.84, sweep-blog 0.86–0.87; random scores give 0.5).
  */
final case class Workload(name: String, defaultSeed: Long, n: Long, avgDeg: Double,
                          labels: Int, directed: Boolean, params: NRP.Params,
                          aucFloor: Double) {
  def kPrime: Int = math.max(1, params.k / 2)
}

object Workload {
  /** Pair counts K for graph-reconstruction precision@K. */
  val reconKs: Seq[Int] = Seq(10, 100, 1000, 10000)

  val all: Seq[Workload] = Seq(
    // wiki-lite's shape (directed, power-law DC-SBM) at n = 250: q = 3, so
    // the first embedding is mostly Spark scheduling, and passes are short.
    Workload("lp-wiki", defaultSeed = 101, n = 250, avgDeg = 20, labels = 8, directed = true,
      params = NRP.Params(k = 64, l1 = 5, eps = 0.9), aucFloor = 0.7),
    // blog-lite's shape (undirected DC-SBM) at n = 290: q = 3; the undirected
    // path, with half lp-wiki's average degree.
    Workload("sweep-blog", defaultSeed = 102, n = 290, avgDeg = 10, labels = 8, directed = false,
      params = NRP.Params(k = 64, l1 = 5, eps = 0.9), aucFloor = 0.75))

  def byName(name: String): Workload = all.find(_.name == name).getOrElse(
    throw new IllegalArgumentException(s"unknown workload $name; known: ${all.map(_.name).mkString(", ")}"))
}
