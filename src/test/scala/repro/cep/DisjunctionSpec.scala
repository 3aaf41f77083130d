package repro.cep

import org.scalatest.funsuite.AnyFunSuite
import repro.core._
import EngineTestKit._

/** End-to-end nested-pattern detection (§5.4): a disjunction of sequences is
  * planned per DNF branch and detected as the union of branch matches.
  */
class DisjunctionSpec extends AnyFunSuite {

  private val provider = EngineTestKit.provider

  private def mkSeq(types: Vector[Int]) =
    OpNode(SEQ, types.map(t => LeafNode(Elem(t, s"T$t"))))

  test("OR of two sequences: matches are the union of branch matches") {
    val p = Pattern(OpNode(OR, Vector(mkSeq(Vector(0, 1)), mkSeq(Vector(2, 3)))), Vector.empty, 10.0)
    val s = Seq(ev(0, 1, 0), ev(2, 2, 1), ev(1, 3, 2), ev(3, 4, 3))
    for (algo <- Algo.all) {
      val branches = Planner.plan(p, provider, algo)
      assert(branches.size == 2)
      val total = branches.map { b =>
        new TreeEngine(b).run(s.toIndexedSeq).stats.matches
      }.sum
      assert(total == 2, s"$algo")
    }
  }

  test("shared types across branches are detected independently") {
    // branch A: SEQ(T0, T1); branch B: SEQ(T1, T2) — the same T1 event serves both
    val p = Pattern(OpNode(OR, Vector(mkSeq(Vector(0, 1)), mkSeq(Vector(1, 2)))), Vector.empty, 10.0)
    val s = Seq(ev(0, 1, 0), ev(1, 2, 1), ev(2, 3, 2))
    val branches = Planner.plan(p, provider, DP_LD)
    val perBranch = branches.map { b =>
      new TreeEngine(b).run(s.toIndexedSeq).stats.matches
    }
    assert(perBranch == Vector(1L, 1L))
  }

  test("branch-local predicates only constrain their own branch") {
    val pred = Pred(0, 1, AttrCmp(0, 0.0, less = true)) // on branch 0's leaves
    val p = Pattern(OpNode(OR, Vector(mkSeq(Vector(0, 1)), mkSeq(Vector(2, 3)))), Vector(pred), 10.0)
    // branch 0 blocked by the predicate (5.0 !< 1.0); branch 1 unconstrained
    val s = Seq(ev(0, 1, 0, diff = 5.0), ev(1, 2, 1, diff = 1.0), ev(2, 3, 2), ev(3, 4, 3))
    val branches = Planner.plan(p, provider, GREEDY)
    val counts = branches.map(b => new TreeEngine(b).run(s.toIndexedSeq).stats.matches)
    assert(counts.sum == 1)
  }

  test("disjunction of sequences equals running each sequence separately") {
    val rnd = new scala.util.Random(86)
    val s = randomStream(6, 80, 8.0, rnd)
    val types = Vector(Vector(0, 1, 2), Vector(3, 4, 5))
    val p = Pattern(OpNode(OR, types.map(mkSeq)), Vector.empty, 1.5)
    val together = Planner.plan(p, provider, DP_B).map { b =>
      new TreeEngine(b).run(s).stats.matches
    }.sum
    val separate = types.map { ts =>
      val sp = SimplePattern(SEQ, ts.map(t => Elem(t, s"T$t")), Vector.empty, 1.5)
      val b = Planner.planSimple(sp, provider, DP_B)
      new TreeEngine(b).run(s).stats.matches
    }.sum
    assert(together == separate)
  }
}
