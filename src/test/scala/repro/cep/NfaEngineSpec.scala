package repro.cep

import org.scalatest.funsuite.AnyFunSuite
import repro.core._
import EngineTestKit._

/** Order plans on [[TreeEngine]], each run as its left-deep tree (Theorem 1):
  * the lazy-NFA semantics of §2.2, §5 and §6.2 on hand-built streams.
  */
class NfaEngineSpec extends AnyFunSuite {

  private val seq3 = SimplePattern(SEQ, elems(3), Vector.empty, 10.0)
  private val trivialOrder = Vector(0, 1, 2)

  test("detects a simple sequence") {
    val s = Seq(ev(0, 1, 0), ev(1, 2, 1), ev(2, 3, 2))
    val r = runNfa(seq3, trivialOrder, s)
    assert(r.stats.matches == 1)
    assert(r.matches.head.byElem == Vector(Vector(0L), Vector(1L), Vector(2L)))
    assert(r.matches.head.minTs == 1.0)
  }

  test("rejects out-of-order events for SEQ") {
    val s = Seq(ev(1, 1, 0), ev(0, 2, 1), ev(2, 3, 2)) // B before A
    assert(runNfa(seq3, trivialOrder, s).stats.matches == 0)
  }

  test("AND accepts any temporal order") {
    val and3 = SimplePattern(AND, elems(3), Vector.empty, 10.0)
    val s = Seq(ev(1, 1, 0), ev(0, 2, 1), ev(2, 3, 2))
    assert(runNfa(and3, trivialOrder, s).stats.matches == 1)
  }

  test("window excludes distant events") {
    val w2 = seq3.copy(window = 2.0)
    val s = Seq(ev(0, 1, 0), ev(1, 2, 1), ev(2, 3.5, 2)) // C is 2.5 after A
    assert(runNfa(w2, trivialOrder, s).stats.matches == 0)
    val s2 = Seq(ev(0, 1, 0), ev(1, 2, 1), ev(2, 2.9, 2))
    assert(runNfa(w2, trivialOrder, s2).stats.matches == 1)
  }

  test("every plan order yields the identical match set (§2.2)") {
    val s = Seq(ev(0, 1, 0), ev(1, 2, 1), ev(0, 2.5, 2), ev(2, 3, 3), ev(1, 4, 4), ev(2, 5, 5))
    val expected = matchSet(runNfa(seq3, trivialOrder, s))
    assert(expected.nonEmpty)
    for (order <- Vector(0, 1, 2).permutations) {
      assert(matchSet(runNfa(seq3, order.toVector, s)) == expected, s"order $order differs")
    }
  }

  test("cartesian combinations: 2 As x 2 Bs = 4 matches under skip-till-any") {
    val seq2 = SimplePattern(SEQ, elems(2), Vector.empty, 10.0)
    val s = Seq(ev(0, 1, 0), ev(0, 2, 1), ev(1, 3, 2), ev(1, 4, 3))
    assert(runNfa(seq2, Vector(0, 1), s).stats.matches == 4)
  }

  test("attribute predicates filter matches") {
    val p = SimplePattern(SEQ, elems(2), Vector(Pred(0, 1, AttrCmp(0, 0.0, less = true))), 10.0)
    val s = Seq(ev(0, 1, 0, diff = 5.0), ev(1, 2, 1, diff = 3.0), ev(1, 3, 2, diff = 7.0))
    val r = runNfa(p, Vector(0, 1), s)
    assert(r.stats.matches == 1)
    assert(r.matches.head.byElem == Vector(Vector(0L), Vector(2L)))
  }

  test("events of foreign types are processed but never matched") {
    val s = Seq(ev(0, 1, 0), ev(9, 1.5, 1), ev(1, 2, 2), ev(7, 2.5, 3), ev(2, 3, 4))
    val r = runNfa(seq3, trivialOrder, s)
    assert(r.stats.events == 5 && r.stats.matches == 1)
  }

  test("negation: NOT(B) between A and C kills the match (§5.3)") {
    val sp = SimplePattern(SEQ, elems(3, negAt = Set(1)), Vector.empty, 10.0)
    val blocked = Seq(ev(0, 1, 0), ev(1, 2, 1), ev(2, 3, 2))
    assert(runNfa(sp, Vector(0, 1), blocked).stats.matches == 0)
    val clear = Seq(ev(0, 1, 0), ev(2, 3, 2)) // no B at all
    assert(runNfa(sp, Vector(0, 1), clear).stats.matches == 1)
    val after = Seq(ev(0, 1, 0), ev(2, 3, 2), ev(1, 4, 3)) // B after C: not between
    assert(runNfa(sp, Vector(0, 1), after).stats.matches == 1)
    val before = Seq(ev(1, 0.5, 0), ev(0, 1, 1), ev(2, 3, 2)) // B before A: not between
    assert(runNfa(sp, Vector(0, 1), before).stats.matches == 1)
  }

  test("negation with a predicate only blocks when the predicate holds") {
    val sp = SimplePattern(SEQ, elems(3, negAt = Set(1)),
      Vector(Pred(0, 1, AttrCmp(0, 0.0, less = true))), 10.0)
    // block requires a.diff < b.diff
    val blocked = Seq(ev(0, 1, 0, diff = 1.0), ev(1, 2, 1, diff = 2.0), ev(2, 3, 2))
    assert(runNfa(sp, Vector(0, 1), blocked).stats.matches == 0)
    val pass = Seq(ev(0, 1, 0, diff = 3.0), ev(1, 2, 1, diff = 2.0), ev(2, 3, 2))
    assert(runNfa(sp, Vector(0, 1), pass).stats.matches == 1)
  }

  test("negation is independent of the plan order") {
    val sp = SimplePattern(SEQ, elems(4, negAt = Set(1)), Vector.empty, 10.0)
    val s = Seq(ev(0, 1, 0), ev(1, 1.5, 1), ev(2, 2, 2), ev(3, 3, 3),
                ev(0, 3.5, 4), ev(2, 4, 5), ev(3, 5, 6))
    val expected = matchSet(runNfa(sp, Vector(0, 1, 2), s))
    for (order <- Vector(0, 1, 2).permutations)
      assert(matchSet(runNfa(sp, order.toVector, s)) == expected)
    // sanity: A@3.5 -> C@4 -> D@5 has no B between 3.5 and 4
    assert(expected.contains(Vector(Vector(4L), Vector(5L), Vector(6L))))
    assert(!expected.contains(Vector(Vector(0L), Vector(2L), Vector(3L))))
  }

  test("Kleene closure: all non-empty subsets within the window (§5.2)") {
    val sp = SimplePattern(SEQ, elems(3, klAt = Set(1)), Vector.empty, 10.0)
    val s = Seq(ev(0, 1, 0), ev(1, 2, 1), ev(1, 3, 2), ev(2, 4, 3))
    val r = runNfa(sp, Vector(0, 1, 2), s)
    // subsets of {b1, b2}: {b1}, {b2}, {b1,b2}
    assert(r.stats.matches == 3)
    assert(matchSet(r) == Set(
      Vector(Vector(0L), Vector(1L), Vector(3L)),
      Vector(Vector(0L), Vector(2L), Vector(3L)),
      Vector(Vector(0L), Vector(1L, 2L), Vector(3L)),
    ))
  }

  test("Kleene subsets respect the sequence ordering constraints") {
    val sp = SimplePattern(SEQ, elems(3, klAt = Set(1)), Vector.empty, 10.0)
    // one B before A: only the B after A qualifies
    val s = Seq(ev(1, 0.5, 0), ev(0, 1, 1), ev(1, 2, 2), ev(2, 3, 3))
    val r = runNfa(sp, Vector(0, 1, 2), s)
    assert(matchSet(r) == Set(Vector(Vector(1L), Vector(2L), Vector(3L))))
  }

  test("Kleene match set is plan-order independent") {
    val sp = SimplePattern(SEQ, elems(3, klAt = Set(1)), Vector.empty, 10.0)
    val s = Seq(ev(0, 1, 0), ev(1, 1.5, 1), ev(1, 2, 2), ev(1, 2.5, 3), ev(2, 3, 4))
    val expected = matchSet(runNfa(sp, Vector(0, 1, 2), s))
    assert(expected.size == 7) // 2^3 - 1 subsets
    for (order <- Vector(0, 1, 2).permutations)
      assert(matchSet(runNfa(sp, order.toVector, s)) == expected)
  }

  test("skip-till-next-match consumes events (§6.2)") {
    val seq2 = SimplePattern(SEQ, elems(2), Vector.empty, 10.0)
    val s = Seq(ev(0, 1, 0), ev(0, 2, 1), ev(1, 3, 2))
    // any-match: 2 matches; next-match: b consumed by the first match found
    assert(runNfa(seq2, Vector(0, 1), s).stats.matches == 2)
    assert(runNfa(seq2, Vector(0, 1), s, strategy = NextMatch).stats.matches == 1)
    // enough Bs for both As
    val s2 = Seq(ev(0, 1, 0), ev(0, 2, 1), ev(1, 3, 2), ev(1, 4, 3))
    assert(runNfa(seq2, Vector(0, 1), s2, strategy = NextMatch).stats.matches == 2)
  }

  test("strict contiguity only accepts stream-adjacent events (§6.2)") {
    val seq2 = SimplePattern(SEQ, elems(2), Vector.empty, 10.0)
    val adjacent = Seq(ev(0, 1, 0), ev(1, 2, 1))
    assert(runNfa(seq2, Vector(0, 1), adjacent, strategy = Contiguity).stats.matches == 1)
    val gap = Seq(ev(0, 1, 0), ev(5, 1.5, 1), ev(1, 2, 2)) // intruder between
    assert(runNfa(seq2, Vector(0, 1), gap, strategy = Contiguity).stats.matches == 0)
    assert(runNfa(seq2, Vector(0, 1), gap, strategy = AnyMatch).stats.matches == 1)
  }

  test("pmCap aborts pathological runs and reports capped") {
    val and3 = SimplePattern(AND, elems(3), Vector.empty, 100.0)
    val rnd = new scala.util.Random(5)
    val s = randomStream(3, 300, 10.0, rnd)
    val r = runNfa(and3, Vector(0, 1, 2), s, config = EngineConfig(collectMatches = false, pmCap = 500))
    assert(r.capped)
    assert(r.stats.pmCreated <= 501)
  }

  test("partial-match counters reflect plan quality (Fig 1 intuition)") {
    // SEQ(A,B,C) where C is rare: processing C-first creates far fewer PMs.
    val rnd = new scala.util.Random(6)
    val s = (Vector.tabulate(200)(i => ev(0, i * 0.05, -1)) ++
      Vector.tabulate(200)(i => ev(1, i * 0.05 + 0.001, -1)) ++
      Vector.tabulate(4)(i => ev(2, i * 2.5 + 0.9, -1)))
      .sortBy(_.ts).zipWithIndex.map { case (e, i) => e.copy(serial = i.toLong) }
    val sp = SimplePattern(SEQ, elems(3), Vector.empty, 1.0)
    val fwd = runNfa(sp, Vector(0, 1, 2), s, config = EngineConfig(collectMatches = false))
    val rare = runNfa(sp, Vector(2, 0, 1), s, config = EngineConfig(collectMatches = false))
    assert(fwd.stats.matches == rare.stats.matches)
    assert(rare.stats.pmCreated < fwd.stats.pmCreated)
    val _ = rnd
  }

  test("peak counters are populated") {
    val s = Seq(ev(0, 1, 0), ev(1, 2, 1), ev(2, 3, 2))
    val st = runNfa(seq3, trivialOrder, s).stats
    assert(st.peakLivePm >= 1 && st.peakBuffered >= 1 && st.wallNanos > 0)
  }

  test("single-element pattern emits one match per event") {
    val sp = SimplePattern(SEQ, elems(1), Vector.empty, 10.0)
    val s = Seq(ev(0, 1, 0), ev(0, 2, 1))
    assert(runNfa(sp, Vector(0), s).stats.matches == 2)
  }
}
