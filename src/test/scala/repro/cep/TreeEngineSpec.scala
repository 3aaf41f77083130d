package repro.cep

import org.scalatest.funsuite.AnyFunSuite
import repro.core._
import EngineTestKit._

/** Tree-based engine semantics (§2.3) on hand-built streams. */
class TreeEngineSpec extends AnyFunSuite {

  private val seq3 = SimplePattern(SEQ, elems(3), Vector.empty, 10.0)
  private val ld3: TreePlan = TreePlan.leftDeep(OrderPlan(Vector(0, 1, 2)))
  private val bushy3: TreePlan = NodePlan(NodePlan(LeafPlan(0), LeafPlan(2)), LeafPlan(1))

  test("detects a simple sequence with a left-deep tree") {
    val s = Seq(ev(0, 1, 0), ev(1, 2, 1), ev(2, 3, 2))
    val r = runTree(seq3, ld3, s)
    assert(r.stats.matches == 1)
    assert(r.matches.head.byElem == Vector(Vector(0L), Vector(1L), Vector(2L)))
  }

  test("bushy tree (A⋈C)⋈B yields the same matches") {
    val s = Seq(ev(0, 1, 0), ev(1, 2, 1), ev(0, 2.5, 2), ev(2, 3, 3), ev(1, 4, 4), ev(2, 5, 5))
    val exp = matchSet(runTree(seq3, ld3, s))
    assert(exp.nonEmpty)
    assert(matchSet(runTree(seq3, bushy3, s)) == exp)
  }

  test("every tree shape over every leaf order yields the same match set") {
    val rnd = new scala.util.Random(31)
    val s = randomStream(3, 40, 8.0, rnd)
    val sp = seq3.copy(window = 2.0)
    val exp = matchSet(runTree(sp, ld3, s))
    for (t <- PlanOracles.enumerate(Vector(0, 1, 2)))
      assert(matchSet(runTree(sp, t, s)) == exp, s"tree $t differs")
  }

  test("window and predicates are enforced at combine time") {
    val p = SimplePattern(SEQ, elems(2), Vector(Pred(0, 1, AttrCmp(0, 0.0, less = true))), 2.0)
    val t = NodePlan(LeafPlan(0), LeafPlan(1))
    val s = Seq(ev(0, 1, 0, diff = 5.0), ev(1, 2, 1, diff = 3.0), ev(1, 2.5, 2, diff = 7.0),
                ev(1, 3.5, 3, diff = 9.0)) // last is outside the window of A
    val r = runTree(p, t, s)
    assert(matchSet(r) == Set(Vector(Vector(0L), Vector(2L))))
  }

  test("negation at the lowest covering node (§5.3)") {
    val sp = SimplePattern(SEQ, elems(3, negAt = Set(1)), Vector.empty, 10.0)
    val t = NodePlan(LeafPlan(0), LeafPlan(1)) // positives A, C
    val blocked = Seq(ev(0, 1, 0), ev(1, 2, 1), ev(2, 3, 2))
    assert(runTree(sp, t, blocked).stats.matches == 0)
    val clear = Seq(ev(0, 1, 0), ev(2, 3, 2))
    assert(runTree(sp, t, clear).stats.matches == 1)
    val outside = Seq(ev(0, 1, 0), ev(2, 3, 2), ev(1, 4, 3))
    assert(runTree(sp, t, outside).stats.matches == 1)
  }

  test("Kleene closure at a leaf: subset instances (§5.2)") {
    val sp = SimplePattern(SEQ, elems(3, klAt = Set(1)), Vector.empty, 10.0)
    val t = NodePlan(NodePlan(LeafPlan(0), LeafPlan(1)), LeafPlan(2))
    val s = Seq(ev(0, 1, 0), ev(1, 2, 1), ev(1, 3, 2), ev(2, 4, 3))
    val r = runTree(sp, t, s)
    assert(matchSet(r) == Set(
      Vector(Vector(0L), Vector(1L), Vector(3L)),
      Vector(Vector(0L), Vector(2L), Vector(3L)),
      Vector(Vector(0L), Vector(1L, 2L), Vector(3L)),
    ))
  }

  test("skip-till-next-match consumes events") {
    val seq2 = SimplePattern(SEQ, elems(2), Vector.empty, 10.0)
    val t = NodePlan(LeafPlan(0), LeafPlan(1))
    val s = Seq(ev(0, 1, 0), ev(0, 2, 1), ev(1, 3, 2))
    assert(runTree(seq2, t, s).stats.matches == 2)
    assert(runTree(seq2, t, s, strategy = NextMatch).stats.matches == 1)
  }

  test("strict contiguity via serial predicates") {
    val seq2 = SimplePattern(SEQ, elems(2), Vector.empty, 10.0)
    val t = NodePlan(LeafPlan(0), LeafPlan(1))
    val gap = Seq(ev(0, 1, 0), ev(5, 1.5, 1), ev(1, 2, 2))
    assert(runTree(seq2, t, gap, strategy = Contiguity).stats.matches == 0)
    val adj = Seq(ev(0, 1, 0), ev(1, 2, 1))
    assert(runTree(seq2, t, adj, strategy = Contiguity).stats.matches == 1)
  }

  test("pmCap aborts and reports capped") {
    val and3 = SimplePattern(AND, elems(3), Vector.empty, 100.0)
    val rnd = new scala.util.Random(32)
    val s = randomStream(3, 300, 10.0, rnd)
    val r = runTree(and3, ld3, s, config = EngineConfig(collectMatches = false, pmCap = 500))
    assert(r.capped)
  }

  test("node instance counters reflect plan quality (Fig 3 intuition)") {
    // Restrictive predicate between A and C: joining A⋈C first creates fewer
    // intermediate instances than the left-deep (A⋈B)⋈C tree.
    val sp = SimplePattern(AND, elems(3), Vector(Pred(0, 2, AttrCmp(0, 3.0, less = true))), 2.0)
    val rnd = new scala.util.Random(33)
    val s = randomStream(3, 400, 20.0, rnd)
    val ldRun = runTree(sp, ld3, s, config = EngineConfig(collectMatches = false))
    val bushyRun = runTree(sp, bushy3, s, config = EngineConfig(collectMatches = false))
    assert(ldRun.stats.matches == bushyRun.stats.matches)
    assert(bushyRun.stats.pmCreated < ldRun.stats.pmCreated)
  }
}
