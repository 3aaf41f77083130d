package repro.core

import scala.util.Random

/** Deterministic random generators shared by the core test suites. */
object TestData {

  /** Random statistics: log-uniform rates, a random subset of pairwise
    * predicates with log-uniform selectivities.
    */
  def randomStats(n: Int, rnd: Random, window: Double = 2.0, predProb: Double = 0.5): Stats = {
    val rates = Vector.fill(n)(math.exp(rnd.nextDouble() * math.log(50.0)))
    val preds = for {
      i <- 0 until n
      j <- i + 1 until n
      if rnd.nextDouble() < predProb
    } yield (i, j, math.exp(math.log(0.01) + rnd.nextDouble() * math.log(0.9 / 0.01)))
    Stats.fromPreds(rates, window, preds)
  }

  /** Chain-query statistics (acyclic query graph): predicates only between
    * consecutive elements — the §4.3 / Appendix A setting.
    */
  def chainStats(n: Int, rnd: Random, window: Double = 2.0): Stats = {
    val rates = Vector.fill(n)(math.exp(rnd.nextDouble() * math.log(50.0)))
    val preds = (0 until n - 1).map(i => (i, i + 1, 0.05 + rnd.nextDouble() * 0.9))
    Stats.fromPreds(rates, window, preds)
  }

  /** The per-predicate selectivity update: `PlanningExactSpec` checks
    * `Stats.fromPreds` against a fold of it, and `CostValidationSpec` builds
    * its known statistics with it.
    */
  implicit final class StatsOps(private val s: Stats) extends AnyVal {
    /** Returns a copy with `sel(i)(j)` (and its mirror) multiplied by `f`. */
    def timesSel(i: Int, j: Int, f: Double): Stats = {
      val m = s.sel.map(_.toArray).toArray
      m(i)(j) *= f
      if (i != j) m(j)(i) *= f
      s.copy(sel = m.map(_.toVector).toVector)
    }
  }

  /** A constant statistics provider for engine tests (measured stats are
    * irrelevant when the plan is fixed by hand).
    */
  final class ConstProvider(r: Double = 1.0, attrSel: Double = 0.5) extends StatsProvider {
    override def rate(elem: Elem): Double = r
    override def predSelectivity(a: Elem, b: Elem, op: PredOp): Double = op match {
      case TsLess        => 0.5
      case SerialSucc    => 0.1
      case AttrCmp(_, _, _) => attrSel
    }
  }
}
