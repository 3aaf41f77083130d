package repro.core

import org.scalatest.funsuite.AnyFunSuite

/** Pattern/plan model invariants (§2.1, §3.1). */
class PatternSpec extends AnyFunSuite {

  private def elems(n: Int): Vector[Elem] = Vector.tabulate(n)(i => Elem(i, s"T$i"))

  test("SimplePattern rejects duplicate types") {
    val dup = Vector(Elem(0, "A"), Elem(0, "A2"))
    assertThrows[IllegalArgumentException](SimplePattern(SEQ, dup, Vector.empty, 1.0))
  }

  test("SimplePattern rejects out-of-range predicate indices") {
    assertThrows[IllegalArgumentException](
      SimplePattern(SEQ, elems(2), Vector(Pred(0, 5, TsLess)), 1.0))
  }

  test("SimplePattern rejects OR and non-positive windows") {
    assertThrows[IllegalArgumentException](SimplePattern(OR, elems(2), Vector.empty, 1.0))
    assertThrows[IllegalArgumentException](SimplePattern(AND, elems(2), Vector.empty, 0.0))
  }

  test("Pred rejects self-references; Elem rejects NOT(KL)") {
    assertThrows[IllegalArgumentException](Pred(1, 1, TsLess))
    assertThrows[IllegalArgumentException](Elem(0, "A", negated = true, kleene = true))
  }

  test("OrderPlan must be a permutation; planPos inverts it") {
    assertThrows[IllegalArgumentException](OrderPlan(Vector(0, 0, 1)))
    val o = OrderPlan(Vector(2, 0, 1))
    assert(o.planPos == Vector(1, 2, 0))
  }

  test("TreePlan masks, leaves, disjointness") {
    val t = NodePlan(NodePlan(LeafPlan(0), LeafPlan(2)), LeafPlan(1))
    assert(t.mask == 7)
    assert(t.leaves == Vector(0, 2, 1))
    assertThrows[IllegalArgumentException](NodePlan(LeafPlan(0), LeafPlan(0)))
  }

  test("leftDeep tree of an order visits leaves in order") {
    val t = TreePlan.leftDeep(OrderPlan(Vector(2, 0, 1)))
    assert(t.leaves == Vector(2, 0, 1))
    assert(t.isInstanceOf[NodePlan])
    assert(t.asInstanceOf[NodePlan].r == LeafPlan(1))
  }

  test("Pattern.simple round-trips leaves and predicates") {
    val sp = SimplePattern(SEQ, elems(3), Vector(Pred(0, 1, TsLess)), 2.0)
    val p = Pattern.simple(sp)
    assert(p.leaves == sp.elems)
    assert(p.preds == sp.preds)
    assert(p.window == 2.0)
  }

  test("Stats validation") {
    assertThrows[IllegalArgumentException](
      Stats(Vector(1.0, 1.0), Vector(Vector(1.0, 0.5), Vector(0.4, 1.0)), 1.0))
  }
}
