package repro.core

import org.scalatest.funsuite.AnyFunSuite
import scala.util.Random

/** The precomputed PM table (used by the DP planners at Fig 17 scale) must be
  * indistinguishable from direct evaluation, bit for bit, for every mask,
  * strategy, and downstream cost function.
  */
class CostTableSpec extends AnyFunSuite {
  import PlanningExactSpec.{bits, pmByDefinition}

  private def same(a: Double, b: Double): Boolean = bits(a) == bits(b)

  test("table pm equals direct pm for every mask (skip-till-any)") {
    val rnd = new Random(81)
    for (_ <- 1 to 20) {
      val n = 2 + rnd.nextInt(6)
      val s = TestData.randomStats(n, rnd)
      val direct = new CostModel(s)
      val tabled = new CostModel(s)
      tabled.ensureTable()
      for (mask <- 0 until (1 << n))
        assert(same(direct.pm(mask), tabled.pm(mask)), s"mask=$mask n=$n")
    }
  }

  test("table pm equals direct pm for every mask (skip-till-next)") {
    val rnd = new Random(82)
    for (_ <- 1 to 20) {
      val n = 2 + rnd.nextInt(6)
      val s = TestData.randomStats(n, rnd)
      val direct = new CostModel(s, strategy = NextMatch)
      val tabled = new CostModel(s, strategy = NextMatch)
      tabled.ensureTable()
      for (mask <- 0 until (1 << n))
        assert(same(direct.pm(mask), tabled.pm(mask)), s"mask=$mask n=$n")
    }
  }

  test("order and tree costs are unchanged by table construction") {
    val rnd = new Random(83)
    for (_ <- 1 to 20) {
      val n = 3 + rnd.nextInt(4)
      val s = TestData.randomStats(n, rnd)
      val alpha = rnd.nextDouble()
      val last = Some(rnd.nextInt(n))
      val direct = new CostModel(s, alpha = alpha, lastElem = last)
      val tabled = new CostModel(s, alpha = alpha, lastElem = last)
      tabled.ensureTable()
      val o = OrderPlan(rnd.shuffle((0 until n).toVector))
      val trees = PlanOracles.enumerate((0 until n).toVector)
      val t = trees(rnd.nextInt(trees.size))
      assert(same(direct.orderCost(o), tabled.orderCost(o)))
      assert(same(direct.treeCost(t), tabled.treeCost(t)))
      assert(same(direct.orderLatency(o), tabled.orderLatency(o)))
      assert(same(direct.treeLatency(t), tabled.treeLatency(t)))
    }
  }

  test("planners pick identical-cost plans with and without a prebuilt table") {
    val rnd = new Random(84)
    for (_ <- 1 to 15) {
      val n = 3 + rnd.nextInt(4)
      val s = TestData.randomStats(n, rnd)
      val a = new CostModel(s)
      val b = new CostModel(s)
      b.ensureTable()
      assert(same(a.orderCost(OrderAlgos.dpLeftDeep(a)), b.orderCost(OrderAlgos.dpLeftDeep(b))))
      assert(same(a.treeCost(TreeAlgos.dpBushy(a)), b.treeCost(TreeAlgos.dpBushy(b))))
      assert(same(a.orderCost(OrderAlgos.greedy(a)), b.orderCost(OrderAlgos.greedy(b))))
    }
  }

  test("a larger-than-24-element model refuses the table but still evaluates") {
    val rnd = new Random(85)
    val s = TestData.randomStats(25, rnd)
    for (strategy <- Seq(AnyMatch, NextMatch)) {
      val cm = new CostModel(s, strategy)
      cm.ensureTable() // no-op at n=25
      val masks = Seq(5, (1 << 25) - 1, 1 << 24) ++ Seq.fill(200)(1 + rnd.nextInt((1 << 25) - 1))
      for (mask <- masks)
        assert(same(cm.pm(mask), pmByDefinition(s, strategy, mask)), s"$strategy mask $mask")
      assert(cm.pm(5) > 0)
    }
  }
}
