package repro.core

/** Per-pattern statistics feeding the cost models (§3, §4).
  *
  * Indexed by *pattern element position* (0..n-1), not by stream type id:
  * `rates(i)` is the arrival rate of the i-th pattern element's type and
  * `sel(i)(j)` the selectivity of the (single, conjunctive) predicate set between
  * elements i and j. `sel(i)(i)` is the filter selectivity of element i
  * (`c_{i,i}` in the paper); 1.0 when absent. The matrix is symmetric.
  *
  * @param rates  arrival rates `r_i`, events per time unit
  * @param sel    pairwise selectivity matrix `sel_{i,j} ∈ (0,1]`
  * @param window time window W, in the same time unit as the rates
  */
final case class Stats(rates: Vector[Double], sel: Vector[Vector[Double]], window: Double)
    extends Serializable {
  val n: Int = rates.size
  require(sel.size == n && sel.forall(_.size == n), "selectivity matrix must be n×n")
  require(rates.forall(_ > 0), "rates must be positive")
  require(window > 0, "window must be positive")
  for (i <- 0 until n; j <- 0 until n)
    require(math.abs(sel(i)(j) - sel(j)(i)) < 1e-12, s"selectivity matrix not symmetric at ($i,$j)")

  /** Expected events of element i inside a window, with its filter applied:
    * `W · r_i · sel_{i,i}` — the cardinality `|R_i|` of the reduction (Thm 1).
    */
  def card(i: Int): Double = window * rates(i) * sel(i)(i)
}

object Stats {
  /** Stats with all selectivities 1 (no predicates). */
  def unconstrained(rates: Vector[Double], window: Double): Stats =
    Stats(rates, Vector.fill(rates.size, rates.size)(1.0), window)

  /** Build from a list of (i, j, selectivity) predicates over unconstrained
    * stats: each multiplies `sel(i)(j)` and its mirror, in list order, into
    * one matrix.
    */
  def fromPreds(rates: Vector[Double], window: Double, preds: Seq[(Int, Int, Double)]): Stats = {
    val n = rates.size
    val m = Array.fill(n, n)(1.0)
    preds.foreach { case (i, j, f) =>
      m(i)(j) *= f
      if (i != j) m(j)(i) *= f
    }
    Stats(rates, m.map(_.toVector).toVector, window)
  }
}
