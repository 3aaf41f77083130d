package repro.core

import org.scalatest.funsuite.AnyFunSuite
import scala.util.Random

/** Order-based planners (§7.1): structural sanity, heuristic quality bounds and
  * DP optimality against exhaustive search.
  */
class OrderAlgosSpec extends AnyFunSuite {

  private def approx(a: Double, b: Double): Boolean =
    math.abs(a - b) <= 1e-9 * math.max(1.0, math.max(math.abs(a), math.abs(b)))

  test("trivial returns the pattern order") {
    assert(OrderAlgos.trivial(4).order == Vector(0, 1, 2, 3))
  }

  test("efreq sorts by ascending rate with index tie-break") {
    val s = Stats.unconstrained(Vector(5.0, 1.0, 3.0, 1.0), 1.0)
    assert(OrderAlgos.efreq(s).order == Vector(1, 3, 2, 0))
  }

  test("all algorithms return permutations") {
    val rnd = new Random(11)
    for (_ <- 1 to 30) {
      val n = 2 + rnd.nextInt(6)
      val cm = new CostModel(TestData.randomStats(n, rnd))
      // OrderPlan's constructor enforces permutation-ness; constructing suffices.
      OrderAlgos.greedy(cm)
      OrderAlgos.iiRandom(cm, seed = rnd.nextLong(), restarts = 3)
      OrderAlgos.iiGreedy(cm)
      OrderAlgos.dpLeftDeep(cm)
    }
  }

  test("DP-LD is optimal: equals brute force over all n! orders") {
    val rnd = new Random(12)
    for (_ <- 1 to 40) {
      val n = 3 + rnd.nextInt(4)
      val cm = new CostModel(TestData.randomStats(n, rnd))
      val dp = cm.orderCost(OrderAlgos.dpLeftDeep(cm))
      val bf = cm.orderCost(PlanOracles.bruteForceOrder(cm))
      assert(approx(dp, bf), s"dp=$dp bf=$bf n=$n")
    }
  }

  test("DP-LD optimal under the hybrid latency objective (alpha > 0)") {
    val rnd = new Random(13)
    for (_ <- 1 to 25) {
      val n = 3 + rnd.nextInt(3)
      val s = TestData.randomStats(n, rnd)
      val cm = new CostModel(s, alpha = rnd.nextDouble() * 2, lastElem = Some(rnd.nextInt(n)))
      assert(approx(cm.orderCost(OrderAlgos.dpLeftDeep(cm)), cm.orderCost(PlanOracles.bruteForceOrder(cm))))
    }
  }

  test("DP-LD optimal under the skip-till-next cost model") {
    val rnd = new Random(14)
    for (_ <- 1 to 25) {
      val n = 3 + rnd.nextInt(3)
      val cm = new CostModel(TestData.randomStats(n, rnd), strategy = NextMatch)
      assert(approx(cm.orderCost(OrderAlgos.dpLeftDeep(cm)), cm.orderCost(PlanOracles.bruteForceOrder(cm))))
    }
  }

  test("heuristics are never better than DP-LD and II never worse than its start") {
    val rnd = new Random(15)
    for (_ <- 1 to 30) {
      val n = 3 + rnd.nextInt(5)
      val cm = new CostModel(TestData.randomStats(n, rnd))
      val opt = cm.orderCost(OrderAlgos.dpLeftDeep(cm))
      val greedy = cm.orderCost(OrderAlgos.greedy(cm))
      val iiG = cm.orderCost(OrderAlgos.iiGreedy(cm))
      val iiR = cm.orderCost(OrderAlgos.iiRandom(cm, seed = rnd.nextLong()))
      assert(greedy >= opt - 1e-9)
      assert(iiG <= greedy + 1e-9) // descent from greedy can only improve
      assert(iiG >= opt - 1e-9 && iiR >= opt - 1e-9)
    }
  }

  test("without predicates the optimal order is ascending rates (= EFREQ)") {
    val s = Stats.unconstrained(Vector(7.0, 1.0, 3.0), 2.0)
    val cm = new CostModel(s)
    assert(OrderAlgos.dpLeftDeep(cm).order == Vector(1, 2, 0))
    assert(cm.orderCost(OrderAlgos.dpLeftDeep(cm)) == cm.orderCost(OrderAlgos.efreq(s)))
  }

  test("a highly selective predicate pulls its pair to the front (Fig 1 intuition)") {
    // rare D first: SEQ(A,B,C,D) with D 10x rarer (the four-cameras example §1)
    val s = Stats.fromPreds(Vector(10.0, 10.0, 10.0, 1.0), 2.0,
      Seq((0, 1, 0.5), (1, 2, 0.5), (2, 3, 0.5)))
    val cm = new CostModel(s)
    assert(OrderAlgos.dpLeftDeep(cm).order.head == 3)
  }

  test("II with latency objective improves a latency-hostile start") {
    val s = Stats.unconstrained(Vector(50.0, 40.0, 1.0), 1.0)
    val cm = new CostModel(s, alpha = 100.0, lastElem = Some(2))
    // With a huge alpha the plan should end with element 2.
    assert(OrderAlgos.dpLeftDeep(cm).order.last == 2)
    assert(OrderAlgos.iiGreedy(cm).order.last == 2)
  }
}
