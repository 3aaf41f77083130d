package repro.core

import org.scalatest.funsuite.AnyFunSuite

/** Planner facade: rewrite pipeline, algorithm dispatch, strategy wiring. */
class PlannerSpec extends AnyFunSuite {

  private val provider = new TestData.ConstProvider(r = 3.0, attrSel = 0.2)

  private def elems(n: Int, negAt: Set[Int] = Set.empty, klAt: Set[Int] = Set.empty): Vector[Elem] =
    Vector.tabulate(n)(i => Elem(i, s"T$i", negated = negAt(i), kleene = klAt(i)))

  test("planSimple dispatches order-based vs tree-based plans per algorithm") {
    val sp = SimplePattern(SEQ, elems(4), Vector.empty, 1.0)
    for (a <- Algo.all) {
      val b = Planner.planSimple(sp, provider, a)
      assert(b.plan.isLeft == a.orderBased, s"$a")
      assert(b.cost > 0 && b.genNanos >= 0)
    }
  }

  test("planSimple normalizes SEQ to AND with full ts predicates") {
    val sp = SimplePattern(SEQ, elems(3), Vector.empty, 1.0)
    val b = Planner.planSimple(sp, provider, TRIVIAL)
    assert(b.positive.op == AND)
    assert(b.positive.preds.count(_.op == TsLess) == 3)
    assert(b.model.lastElem.contains(2))
  }

  test("AND patterns have no temporally-last element (latency cost 0)") {
    val sp = SimplePattern(AND, elems(3), Vector.empty, 1.0)
    val b = Planner.planSimple(sp, provider, DP_LD, alpha = 1.0)
    assert(b.model.lastElem.isEmpty)
    assert(b.model.orderLatency(b.plan.swap.getOrElse(fail())) == 0.0)
  }

  test("negated elements are stripped into NegSpecs before planning") {
    val sp = SimplePattern(SEQ, elems(4, negAt = Set(2)), Vector.empty, 1.0)
    val b = Planner.planSimple(sp, provider, GREEDY)
    assert(b.positive.size == 3)
    assert(b.negs.size == 1)
    assert(b.negs.head.elem.typeId == 2)
    assert(b.plan.swap.getOrElse(fail()).order.size == 3)
  }

  test("Kleene rates flow into the planning statistics") {
    val sp = SimplePattern(SEQ, elems(3, klAt = Set(1)), Vector.empty, 2.0)
    val b = Planner.planSimple(sp, provider, DP_LD)
    assert(b.model.stats.rates(1) == Rewrites.kleeneRate(3.0, 2.0))
    // huge KL rate => planned last
    assert(b.plan.swap.getOrElse(fail()).order.last == 1)
  }

  test("contiguity strategy injects SerialSucc predicates and the next-match cost model") {
    val sp = SimplePattern(SEQ, elems(3), Vector.empty, 1.0)
    val b = Planner.planSimple(sp, provider, DP_LD, strategy = Contiguity)
    assert(b.positive.preds.count(_.op == SerialSucc) == 2)
    assert(b.model.strategy == Contiguity)
  }

  test("nested disjunction plans one branch per disjunct") {
    val mkSeq = (off: Int) => OpNode(SEQ, Vector.tabulate(3)(i => LeafNode(Elem(off + i, s"T${off + i}"))))
    val p = Pattern(OpNode(OR, Vector(mkSeq(0), mkSeq(3))), Vector.empty, 1.0)
    val branches = Planner.plan(p, provider, DP_B)
    assert(branches.size == 2)
    assert(branches.forall(_.plan.isRight))
    assert(branches.forall(_.positive.size == 3))
  }

  test("simple patterns bypass DNF (single branch, same plan as planSimple)") {
    val sp = SimplePattern(SEQ, elems(3), Vector(Pred(0, 2, AttrCmp(0, 0.1, less = true))), 1.0)
    val viaPattern = Planner.plan(Pattern.simple(sp), provider, DP_LD)
    val direct = Planner.planSimple(sp, provider, DP_LD)
    assert(viaPattern.size == 1)
    assert(viaPattern.head.plan == direct.plan)
    assert(viaPattern.head.cost == direct.cost)
  }

  test("alpha is recorded and changes the objective") {
    val sp = SimplePattern(SEQ, elems(4), Vector.empty, 1.0)
    // Heavily skewed rates so the throughput-optimal plan ends away from T_n.
    val skewed = new StatsProvider {
      override def rate(e: Elem): Double = Vector(50.0, 40.0, 30.0, 1.0)(e.typeId)
      override def predSelectivity(a: Elem, b: Elem, op: PredOp): Double = 0.5
    }
    val b0 = Planner.planSimple(sp, skewed, DP_LD, alpha = 0.0)
    val b1 = Planner.planSimple(sp, skewed, DP_LD, alpha = 1e9)
    assert(b0.model.alpha == 0.0 && b1.model.alpha == 1e9)
    val cm = b1.model
    assert(cm.orderLatency(b1.plan.swap.getOrElse(fail())) <=
      cm.orderLatency(b0.plan.swap.getOrElse(fail())))
    assert(b1.plan.swap.getOrElse(fail()).order.last == 3)
  }
}
