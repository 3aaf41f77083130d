package repro.cep

import org.scalatest.funsuite.AnyFunSuite
import repro.core._
import repro.core.TestData.StatsOps
import EngineTestKit._
import scala.util.Random

/** Fig 16 support: the cost models must rank real executions correctly — a
  * cheaper plan creates fewer partial matches (the quantity both throughput and
  * memory track).
  */
class CostValidationSpec extends AnyFunSuite {

  /** Poisson-like stream with known per-type rates over [0, horizon]. */
  private def ratedStream(rates: Vector[Double], horizon: Double, rnd: Random): Vector[Event] =
    rates.zipWithIndex
      .flatMap { case (r, t) =>
        Vector.fill((r * horizon).toInt)((t, rnd.nextDouble() * horizon, rnd.nextGaussian()))
      }
      .sortBy(_._2)
      .zipWithIndex
      .map { case ((t, ts, d), i) => ev(t, ts, i.toLong, d) }
      .toVector

  private val rates = Vector(12.0, 6.0, 1.0, 9.0)
  private val horizon = 60.0
  private val window = 1.0

  private def patternAndStats(rnd: Random): (SimplePattern, Stats) = {
    val preds = Vector(Pred(0, 2, AttrCmp(0, 1.0, less = true)), Pred(1, 3, AttrCmp(0, 0.5, less = true)))
    val sp = SimplePattern(SEQ, elems(4), preds, window)
    val pos = Rewrites.seqToAnd(sp)
    // selectivities of AttrCmp(shift): P(x + s < y) for x,y ~ N(0,1): Φ(-s/√2)
    def phi(x: Double) = 0.5 * (1 + erf(x / math.sqrt(2)))
    def erf(x: Double) = { // Abramowitz–Stegun approximation, enough for a test
      val t = 1.0 / (1.0 + 0.3275911 * math.abs(x))
      val y = 1 - (((((1.061405429 * t - 1.453152027) * t) + 1.421413741) * t - 0.284496736) * t + 0.254829592) * t * math.exp(-x * x)
      if (x >= 0) y else -y
    }
    val base = Stats.unconstrained(rates, window)
    val withTs = pos.preds.foldLeft(base) { (s, p) =>
      p.op match {
        case TsLess            => s.timesSel(p.i, p.j, 0.5)
        case AttrCmp(_, sh, _) => s.timesSel(p.i, p.j, phi(-sh / math.sqrt(2.0)))
        case _                 => s
      }
    }
    val _ = rnd
    (sp, withTs)
  }

  test("order-plan cost ranks measured partial-match counts") {
    val rnd = new Random(71)
    val s = ratedStream(rates, horizon, rnd)
    val (sp, stats) = patternAndStats(rnd)
    val cm = new CostModel(stats)
    val orders = (0 until 4).toVector.permutations.toVector
    val costed = orders.map(o => (o, cm.orderCost(OrderPlan(o))))
    val cheap = costed.minBy(_._2)
    val costly = costed.maxBy(_._2)
    assert(costly._2 / cheap._2 > 3.0, "test needs plans with separated costs")
    val cfgNoCollect = EngineConfig(collectMatches = false)
    val cheapRun = runNfa(sp, cheap._1, s, config = cfgNoCollect)
    val costlyRun = runNfa(sp, costly._1, s, config = cfgNoCollect)
    assert(cheapRun.stats.matches == costlyRun.stats.matches)
    assert(cheapRun.stats.pmCreated < costlyRun.stats.pmCreated,
      s"cheap ${cheapRun.stats.pmCreated} vs costly ${costlyRun.stats.pmCreated}")
  }

  test("tree-plan cost ranks measured instance counts") {
    val rnd = new Random(72)
    val s = ratedStream(rates, horizon, rnd)
    val (sp, stats) = patternAndStats(rnd)
    val cm = new CostModel(stats)
    val trees = PlanOracles.enumerate((0 until 4).toVector)
    val costed = trees.map(t => (t, cm.treeCost(t)))
    val cheap = costed.minBy(_._2)
    val costly = costed.maxBy(_._2)
    assert(costly._2 / cheap._2 > 3.0)
    val cfgNoCollect = EngineConfig(collectMatches = false)
    val cheapRun = runTree(sp, cheap._1, s, config = cfgNoCollect)
    val costlyRun = runTree(sp, costly._1, s, config = cfgNoCollect)
    assert(cheapRun.stats.matches == costlyRun.stats.matches)
    assert(cheapRun.stats.pmCreated < costlyRun.stats.pmCreated)
  }

  test("Spearman rank correlation between cost and measured PMs is strongly positive") {
    val rnd = new Random(73)
    val s = ratedStream(rates, horizon, rnd)
    val (sp, stats) = patternAndStats(rnd)
    val cm = new CostModel(stats)
    val orders = (0 until 4).toVector.permutations.toVector
    val pts = orders.map { o =>
      val run = runNfa(sp, o, s, config = EngineConfig(collectMatches = false))
      (cm.orderCost(OrderPlan(o)), run.stats.pmCreated.toDouble)
    }
    def ranks(xs: Vector[Double]): Vector[Double] = {
      val sorted = xs.zipWithIndex.sortBy(_._1)
      val r = Array.ofDim[Double](xs.size)
      sorted.zipWithIndex.foreach { case ((_, orig), rank) => r(orig) = rank.toDouble }
      r.toVector
    }
    val rx = ranks(pts.map(_._1)); val ry = ranks(pts.map(_._2))
    val n = pts.size
    val d2 = rx.zip(ry).map { case (a, b) => (a - b) * (a - b) }.sum
    val rho = 1 - 6 * d2 / (n * (n * n - 1.0))
    assert(rho > 0.7, s"Spearman rho=$rho")
  }
}
