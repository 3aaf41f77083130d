package repro.cep

import org.scalatest.funsuite.AnyFunSuite
import repro.core._
import EngineTestKit._
import scala.util.Random

/** Cross-engine equivalence: under skip-till-any the NFA engine (any order) and
  * the tree engine (any tree) must emit the same match set — four independent
  * detection paths per pattern in total once Spark joins and DuckDB are added
  * by the spark suites.
  */
class EngineEquivalenceSpec extends AnyFunSuite {

  test("random patterns: all NFA orders and all trees agree on the match set") {
    val rnd = new Random(41)
    for (iter <- 1 to 25) {
      val n = 2 + rnd.nextInt(3)
      val sp = randomPattern(rnd, n, withNeg = false, withKl = false)
      val s = randomStream(n + 1, 60, 6.0, rnd)
      val ref = matchSet(runNfa(sp, (0 until n).toVector, s))
      for (order <- (0 until n).toVector.permutations)
        assert(matchSet(runNfa(sp, order, s)) == ref, s"iter=$iter order=$order sp=$sp")
      for (t <- PlanOracles.enumerate((0 until n).toVector))
        assert(matchSet(runTree(sp, t, s)) == ref, s"iter=$iter tree=$t sp=$sp")
    }
  }

  test("random negation patterns: NFA and tree engines agree") {
    val rnd = new Random(42)
    for (iter <- 1 to 15) {
      val n = 3 + rnd.nextInt(2)
      val sp = randomPattern(rnd, n, withNeg = true, withKl = false)
      val s = randomStream(n + 1, 60, 6.0, rnd)
      val posN = n - 1
      val ref = matchSet(runNfa(sp, (0 until posN).toVector, s))
      for (order <- (0 until posN).toVector.permutations)
        assert(matchSet(runNfa(sp, order, s)) == ref, s"iter=$iter order=$order")
      for (t <- PlanOracles.enumerate((0 until posN).toVector))
        assert(matchSet(runTree(sp, t, s)) == ref, s"iter=$iter tree=$t")
    }
  }

  test("random Kleene patterns: NFA and tree engines agree") {
    val rnd = new Random(43)
    for (iter <- 1 to 15) {
      val n = 2 + rnd.nextInt(2)
      val sp = randomPattern(rnd, n, withNeg = false, withKl = true)
      val s = randomStream(n + 1, 40, 8.0, rnd) // sparse: KL buffers stay small
      val ref = matchSet(runNfa(sp, (0 until n).toVector, s))
      assert(ref == matchSet(runNfa(sp, (0 until n).reverse.toVector, s)), s"iter=$iter")
      for (t <- PlanOracles.enumerate((0 until n).toVector))
        assert(matchSet(runTree(sp, t, s)) == ref, s"iter=$iter tree=$t")
    }
  }

  test("order plan and its left-deep tree: same counters and matches") {
    // Theorem 1: an order plan is its left-deep tree, so both plan families
    // run one evaluation, under every strategy.
    def timeless(r: RunResult) = r.stats.copy(wallNanos = 0, latencyNanosSum = 0)
    val rnd = new Random(44)
    for (strategy <- Seq[Strategy](AnyMatch, NextMatch, Contiguity); iter <- 1 to 8) {
      val n = 2 + rnd.nextInt(3)
      val sp = randomPattern(rnd, n, withNeg = iter % 3 == 0, withKl = iter % 4 == 0)
      val s = randomStream(n + 1, 60, 6.0, rnd)
      for (order <- (0 until sp.positives.size).toVector.permutations) {
        val a = runNfa(sp, order, s, strategy)
        val b = runTree(sp, TreePlan.leftDeep(OrderPlan(order)), s, strategy)
        assert(timeless(a) == timeless(b) && a.matches == b.matches, s"$strategy iter=$iter order=$order sp=$sp")
      }
    }
  }

  test("match counts are invariant across engines on denser streams") {
    val rnd = new Random(45)
    val sp = SimplePattern(SEQ, elems(4), Vector(Pred(0, 3, AttrCmp(0, 0.0, less = true))), 1.0)
    val s = randomStream(5, 400, 20.0, rnd)
    val counts = (
      (0 until 4).toVector.permutations.take(6).map(o => runNfa(sp, o, s).stats.matches) ++
        PlanOracles.enumerate((0 until 4).toVector).take(6).map(t => runTree(sp, t, s).stats.matches)
    ).toSet
    assert(counts.size == 1)
  }
}
