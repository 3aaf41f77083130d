package repro.core

import org.scalatest.funsuite.AnyFunSuite
import scala.util.Random

/** Cost models of §4.1/§4.2/§6.1/§6.2: hand-computed values, the Theorem 1/2
  * cost identities, hybrid latency decomposition, and the Appendix A ASI
  * property.
  */
class CostModelSpec extends AnyFunSuite {

  private def approx(a: Double, b: Double, tol: Double = 1e-9): Boolean =
    math.abs(a - b) <= tol * math.max(1.0, math.max(math.abs(a), math.abs(b)))

  test("pm of a singleton is W·r·sel_ii") {
    val s = Stats.fromPreds(Vector(3.0, 5.0), 2.0, Seq((0, 0, 0.5)))
    val cm = new CostModel(s)
    assert(approx(cm.pm(1 << 0), 2.0 * 3.0 * 0.5))
    assert(approx(cm.pm(1 << 1), 2.0 * 5.0))
  }

  test("pm of a pair multiplies cardinalities and the pair selectivity") {
    val s = Stats.fromPreds(Vector(3.0, 5.0), 2.0, Seq((0, 1, 0.1)))
    val cm = new CostModel(s)
    assert(approx(cm.pm(3), (2 * 3.0) * (2 * 5.0) * 0.1))
  }

  test("orderCost sums the PM of every prefix (hand-computed, n=3)") {
    val s = Stats.fromPreds(Vector(2.0, 4.0, 1.0), 1.0, Seq((0, 1, 0.5), (1, 2, 0.25)))
    val cm = new CostModel(s)
    val o = OrderPlan(Vector(2, 1, 0))
    // prefixes: {2}, {1,2}, {0,1,2}
    val exp = 1.0 + (4.0 * 1.0 * 0.25) + (2.0 * 4.0 * 1.0 * 0.5 * 0.25)
    assert(approx(cm.orderCost(o), exp))
  }

  test("treeCost sums leaves and internal nodes (hand-computed, n=3)") {
    val s = Stats.fromPreds(Vector(2.0, 4.0, 1.0), 1.0, Seq((0, 2, 0.1)))
    val cm = new CostModel(s)
    val t = NodePlan(NodePlan(LeafPlan(0), LeafPlan(2)), LeafPlan(1))
    val exp = 2.0 + 1.0 + 4.0 + (2.0 * 1.0 * 0.1) + (2.0 * 1.0 * 0.1 * 4.0)
    assert(approx(cm.treeCost(t), exp))
  }

  test("Theorem 1 identity: Cost_ord equals Cost_LDJ under the reduction") {
    val rnd = new Random(1)
    for (_ <- 1 to 50) {
      val n = 2 + rnd.nextInt(5)
      val s = TestData.randomStats(n, rnd)
      val cm = new CostModel(s)
      val order = rnd.shuffle((0 until n).toVector)
      val cards = (0 until n).map(i => s.window * s.rates(i)).toVector
      assert(approx(cm.orderCost(OrderPlan(order)), JoinCost.ldj(cards, s.sel, order)))
    }
  }

  test("Theorem 2 identity: Cost_tree equals Cost_BJ under the reduction") {
    val rnd = new Random(2)
    for (_ <- 1 to 50) {
      val n = 2 + rnd.nextInt(4)
      val s = TestData.randomStats(n, rnd)
      val cm = new CostModel(s)
      val trees = PlanOracles.enumerate((0 until n).toVector)
      val t = trees(rnd.nextInt(trees.size))
      val cards = (0 until n).map(i => s.window * s.rates(i)).toVector
      assert(approx(cm.treeCost(t), JoinCost.bushy(cards, s.sel, t)))
    }
  }

  test("left-deep tree cost equals order cost minus nothing but leaf accounting") {
    // Cost_tree of the left-deep tree counts each leaf once; Cost_ord counts the
    // first element's PM as the first prefix. The internal nodes coincide with
    // prefixes 2..n, so the difference is exactly the non-head leaf PMs.
    val rnd = new Random(3)
    for (_ <- 1 to 30) {
      val n = 2 + rnd.nextInt(4)
      val s = TestData.randomStats(n, rnd)
      val cm = new CostModel(s)
      val order = rnd.shuffle((0 until n).toVector)
      val tree = TreePlan.leftDeep(OrderPlan(order))
      val leafExtra = order.tail.map(e => cm.pm(1 << e)).sum
      assert(approx(cm.treeCost(tree), cm.orderCost(OrderPlan(order)) + leafExtra))
    }
  }

  test("orderLatency sums W·r over successors of the last element (§6.1)") {
    val s = Stats.unconstrained(Vector(2.0, 3.0, 5.0, 7.0), 2.0)
    val cm = new CostModel(s, alpha = 1.0, lastElem = Some(3))
    val o = OrderPlan(Vector(1, 3, 0, 2))
    assert(approx(cm.orderLatency(o), 2.0 * 2.0 + 2.0 * 5.0))
    // last element at the end of the plan => zero latency
    assert(approx(cm.orderLatency(OrderPlan(Vector(0, 1, 2, 3))), 0.0))
  }

  test("hybrid order cost decomposes as trpt + alpha*lat") {
    val rnd = new Random(4)
    for (_ <- 1 to 40) {
      val n = 3 + rnd.nextInt(4)
      val s = TestData.randomStats(n, rnd)
      val alpha = rnd.nextDouble()
      val last = rnd.nextInt(n)
      val cm = new CostModel(s, alpha = alpha, lastElem = Some(last))
      val trpt = new CostModel(s, alpha = 0.0, lastElem = Some(last))
      val o = OrderPlan(rnd.shuffle((0 until n).toVector))
      assert(approx(cm.orderCost(o), trpt.orderCost(o) + alpha * cm.orderLatency(o)))
    }
  }

  test("hybrid tree cost decomposes as trpt + alpha*lat") {
    val rnd = new Random(5)
    for (_ <- 1 to 40) {
      val n = 3 + rnd.nextInt(3)
      val s = TestData.randomStats(n, rnd)
      val alpha = rnd.nextDouble()
      val last = rnd.nextInt(n)
      val cm = new CostModel(s, alpha = alpha, lastElem = Some(last))
      val trpt = new CostModel(s, alpha = 0.0, lastElem = Some(last))
      val trees = PlanOracles.enumerate((0 until n).toVector)
      val t = trees(rnd.nextInt(trees.size))
      assert(approx(cm.treeCost(t), trpt.treeCost(t) + alpha * cm.treeLatency(t)))
    }
  }

  test("treeLatency sums sibling PMs along the path of the last element (§6.1)") {
    val s = Stats.unconstrained(Vector(2.0, 3.0, 5.0), 1.0)
    val cm = new CostModel(s, alpha = 1.0, lastElem = Some(0))
    // ((0 ⋈ 2) ⋈ 1): path of leaf 0 -> parent {0,2} -> root; siblings: leaf 2, leaf 1
    val t = NodePlan(NodePlan(LeafPlan(0), LeafPlan(2)), LeafPlan(1))
    assert(approx(cm.treeLatency(t), cm.pm(1 << 2) + cm.pm(1 << 1)))
  }

  test("skip-till-next m[k]: W·min(rates)·Π sel (§6.2), cost scales by W") {
    val s = Stats.fromPreds(Vector(4.0, 2.0, 8.0), 3.0, Seq((0, 1, 0.5)))
    val cm = new CostModel(s, strategy = NextMatch)
    assert(approx(cm.pm(3), 3.0 * 2.0 * 0.5)) // min(4,2)=2
    assert(approx(cm.pm(7), 3.0 * 2.0 * 0.5))
    val o = OrderPlan(Vector(0, 1, 2))
    val exp = 3.0 * (3.0 * 4.0) + 3.0 * (3.0 * 2.0 * 0.5) + 3.0 * (3.0 * 2.0 * 0.5)
    assert(approx(cm.orderCost(o), exp))
  }

  test("next-match pm never exceeds any-match pm") {
    val rnd = new Random(6)
    for (_ <- 1 to 40) {
      val n = 2 + rnd.nextInt(4)
      val s = TestData.randomStats(n, rnd)
      // any-match pm >= next-match pm whenever every W·r_i >= 1 (then the
      // product over cardinalities dominates W·min r).
      val s2 = s.copy(rates = s.rates.map(r => math.max(r, 1.0 / s.window)))
      val any = new CostModel(s2, AnyMatch)
      val next = new CostModel(s2, NextMatch)
      for (mask <- 1 until (1 << n))
        assert(next.pm(mask) <= any.pm(mask) * (1 + 1e-9))
    }
  }

  test("ASI property of Cost_ord^trpt (Appendix A, Theorem 5)") {
    // With per-element weights w_i = W·r_i·sel_i^R (acyclic graph, fixed root),
    // C(s) = Σ_k Π_{i≤k} w_i and rank(s) = (T(s)-1)/C(s): verify
    // C(auvb) <= C(avub) <=> rank(u) <= rank(v).
    val rnd = new Random(7)
    def c(ws: Seq[Double]): Double = ws.scanLeft(1.0)(_ * _).tail.sum
    def t(ws: Seq[Double]): Double = ws.product
    def rank(ws: Seq[Double]): Double = (t(ws) - 1) / c(ws)
    var checked = 0
    for (_ <- 1 to 300) {
      val total = 4 + rnd.nextInt(6)
      val ws = Seq.fill(total)(math.exp((rnd.nextDouble() - 0.3) * 3))
      val cut1 = rnd.nextInt(total - 2)
      val cut2 = cut1 + 1 + rnd.nextInt(total - cut1 - 2)
      val cut3 = cut2 + 1 + rnd.nextInt(total - cut2 - 1)
      val (a, rest1) = ws.splitAt(cut1)
      val (u, rest2) = rest1.splitAt(cut2 - cut1)
      val (v, b) = rest2.splitAt(cut3 - cut2)
      if (u.nonEmpty && v.nonEmpty) {
        val cuv = c(a ++ u ++ v ++ b)
        val cvu = c(a ++ v ++ u ++ b)
        if (math.abs(cuv - cvu) > 1e-9 && math.abs(rank(u) - rank(v)) > 1e-12) {
          assert((cuv <= cvu) == (rank(u) <= rank(v)), s"ASI violated for a=$a u=$u v=$v b=$b")
          checked += 1
        }
      }
    }
    assert(checked > 50, s"too few effective ASI checks: $checked")
  }

  test("ASI property of Cost_ord^lat (Appendix A, Theorem 6)") {
    // Cost(O) = Σ_{i in Succ_O(last)} w_i. rank(s) = Σ_{i in Succ_s(last)} w_i if
    // last ∈ s else 0. Verify the ASI equivalence on random splits.
    val rnd = new Random(8)
    def cost(s: Seq[(Double, Boolean)]): Double = {
      val idx = s.indexWhere(_._2)
      if (idx < 0) 0.0 else s.drop(idx + 1).map(_._1).sum
    }
    def rank(s: Seq[(Double, Boolean)]): Double = if (s.exists(_._2)) cost(s) else 0.0
    var checked = 0
    for (_ <- 1 to 300) {
      val total = 4 + rnd.nextInt(6)
      val lastAt = rnd.nextInt(total)
      val ws = Seq.tabulate(total)(i => (math.exp(rnd.nextDouble() * 2), i == lastAt))
      val cut1 = rnd.nextInt(total - 2)
      val cut2 = cut1 + 1 + rnd.nextInt(total - cut1 - 2)
      val cut3 = cut2 + 1 + rnd.nextInt(total - cut2 - 1)
      val (a, rest1) = ws.splitAt(cut1)
      val (u, rest2) = rest1.splitAt(cut2 - cut1)
      val (v, b) = rest2.splitAt(cut3 - cut2)
      if (u.nonEmpty && v.nonEmpty) {
        val cuv = cost(a ++ u ++ v ++ b)
        val cvu = cost(a ++ v ++ u ++ b)
        if (math.abs(cuv - cvu) > 1e-12 && math.abs(rank(u) - rank(v)) > 1e-12) {
          assert((cuv <= cvu) == (rank(u) <= rank(v)))
          checked += 1
        }
      }
    }
    assert(checked > 20, s"too few effective ASI checks: $checked")
  }

  test("Kleene rewrite dominates products: KL element lands last in DP plans") {
    // With r·W large enough that 2^{rW} dwarfs every selectivity product, the
    // power-set type is postponed to the final plan step (§5.2). (For small r·W
    // the rewrite legitimately may NOT dominate — that is by design.)
    val rnd = new Random(9)
    for (_ <- 1 to 20) {
      val n = 3 + rnd.nextInt(3)
      val rates = Vector.fill(n)(20.0 + rnd.nextDouble() * 30.0)
      val preds = for {
        i <- 0 until n; j <- i + 1 until n if rnd.nextBoolean()
      } yield (i, j, 0.01 + rnd.nextDouble() * 0.9)
      val s0 = Stats.fromPreds(rates, 2.0, preds)
      val kl = rnd.nextInt(n)
      val s = s0.copy(rates = s0.rates.updated(kl, Rewrites.kleeneRate(s0.rates(kl), s0.window)))
      val cm = new CostModel(s)
      assert(OrderAlgos.dpLeftDeep(cm).order.last == kl)
    }
  }
}
