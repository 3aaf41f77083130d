package repro.core

import org.scalatest.funsuite.AnyFunSuite
import scala.util.Random

/** Tree-based planners (§7.1): interval-DP and subset-DP optimality against
  * exhaustive enumeration, plus the Fig 3 leaf-reordering scenario.
  */
class TreeAlgosSpec extends AnyFunSuite {

  private def approx(a: Double, b: Double): Boolean =
    math.abs(a - b) <= 1e-9 * math.max(1.0, math.max(math.abs(a), math.abs(b)))

  test("tree enumeration counts: (2n-3)!! bushy trees, Catalan fixed-order trees") {
    assert(PlanOracles.enumerate(Vector(0, 1, 2)).size == 3)
    assert(PlanOracles.enumerate(Vector(0, 1, 2, 3)).size == 15)
    assert(PlanOracles.enumerateFixedOrder(Vector(0, 1, 2)).size == 2)
    assert(PlanOracles.enumerateFixedOrder(Vector(0, 1, 2, 3)).size == 5)
    assert(PlanOracles.enumerateFixedOrder(Vector(0, 1, 2, 3, 4)).size == 14)
  }

  test("ZStream interval DP equals brute force over fixed-order trees") {
    val rnd = new Random(21)
    for (_ <- 1 to 40) {
      val n = 3 + rnd.nextInt(4)
      val cm = new CostModel(TestData.randomStats(n, rnd))
      val leafOrder = rnd.shuffle((0 until n).toVector)
      val dp = cm.treeCost(TreeAlgos.zstream(cm, leafOrder))
      val bf = cm.treeCost(PlanOracles.bruteForceFixedOrder(cm, leafOrder))
      assert(approx(dp, bf), s"zstream=$dp bf=$bf")
    }
  }

  test("DP-B equals brute force over all bushy trees") {
    val rnd = new Random(22)
    for (_ <- 1 to 30) {
      val n = 3 + rnd.nextInt(3)
      val cm = new CostModel(TestData.randomStats(n, rnd))
      val dp = cm.treeCost(TreeAlgos.dpBushy(cm))
      val bf = cm.treeCost(PlanOracles.bruteForceTree(cm))
      assert(approx(dp, bf), s"dpb=$dp bf=$bf n=$n")
    }
  }

  test("DP-B optimal under the hybrid latency objective") {
    val rnd = new Random(23)
    for (_ <- 1 to 20) {
      val n = 3 + rnd.nextInt(3)
      val s = TestData.randomStats(n, rnd)
      val cm = new CostModel(s, alpha = rnd.nextDouble() * 2, lastElem = Some(rnd.nextInt(n)))
      assert(approx(cm.treeCost(TreeAlgos.dpBushy(cm)), cm.treeCost(PlanOracles.bruteForceTree(cm))))
    }
  }

  test("DP-B optimal under the skip-till-next cost model") {
    val rnd = new Random(24)
    for (_ <- 1 to 20) {
      val n = 3 + rnd.nextInt(3)
      val cm = new CostModel(TestData.randomStats(n, rnd), strategy = NextMatch)
      assert(approx(cm.treeCost(TreeAlgos.dpBushy(cm)), cm.treeCost(PlanOracles.bruteForceTree(cm))))
    }
  }

  test("plan-space inclusion: DP-B <= ZSTREAM-ORD, ZSTREAM <= trivial-order trees") {
    val rnd = new Random(25)
    for (_ <- 1 to 30) {
      val n = 3 + rnd.nextInt(4)
      val cm = new CostModel(TestData.randomStats(n, rnd))
      val dpb = cm.treeCost(TreeAlgos.dpBushy(cm))
      val zs = cm.treeCost(TreeAlgos.zstream(cm, (0 until n).toVector))
      val zso = cm.treeCost(TreeAlgos.zstreamOrd(cm))
      assert(dpb <= zs + 1e-9)
      assert(dpb <= zso + 1e-9)
    }
  }

  test("DP-B never worse than the left-deep tree of DP-LD (bushy ⊇ left-deep)") {
    val rnd = new Random(26)
    for (_ <- 1 to 30) {
      val n = 3 + rnd.nextInt(4)
      val cm = new CostModel(TestData.randomStats(n, rnd))
      val ld = cm.treeCost(TreePlan.leftDeep(OrderAlgos.dpLeftDeep(cm)))
      assert(cm.treeCost(TreeAlgos.dpBushy(cm)) <= ld + 1e-9)
    }
  }

  test("Fig 3: restrictive predicate between A and C — ZStream misses the optimal tree") {
    // SEQ(A a, B b, C c) WHERE a.x = c.x, equal rates, very restrictive sel(A,C).
    val s = Stats.fromPreds(Vector(10.0, 10.0, 10.0), 1.0,
      Seq((0, 2, 0.001), (0, 1, 0.5), (1, 2, 0.5))) // ts-order constraints at 0.5
    val cm = new CostModel(s)
    val dpb = TreeAlgos.dpBushy(cm)
    // The optimal tree joins A and C first (a node covering exactly {0, 2}).
    assert(dpb.nodes.exists { case n: NodePlan => n.mask == ((1 << 0) | (1 << 2)); case _ => false })
    val zs = TreeAlgos.zstream(cm, Vector(0, 1, 2))
    // ZStream with pattern-order leaves cannot produce that node...
    assert(!zs.nodes.exists { case n: NodePlan => n.mask == ((1 << 0) | (1 << 2)); case _ => false })
    // ...and therefore pays a strictly higher cost.
    assert(cm.treeCost(dpb) < cm.treeCost(zs))
    // ZSTREAM-ORD recovers the plan by reordering leaves first (§7.1).
    val zso = TreeAlgos.zstreamOrd(cm)
    assert(cm.treeCost(zso) < cm.treeCost(zs))
  }
}
