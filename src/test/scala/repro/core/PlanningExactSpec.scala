package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.data._
import scala.util.Random

/** Exactness of the planning set-up: `Planner.buildStats` equals the
  * per-predicate `timesSel` fold, and the array-scored II descent returns the
  * order of the descent that builds an `OrderPlan` per move.
  */
class PlanningExactSpec extends AnyFunSuite {
  import PlanningExactSpec._

  private val nTypes = 10

  private lazy val provider: MeasuredStatsProvider = {
    val rnd = new Random(8)
    val rates = (0 until nTypes).map(t => t -> (1.0 + 19.0 * rnd.nextDouble())).toMap
    val diffs = (0 until nTypes).map { t =>
      val a = Array.fill(200 + rnd.nextInt(300))(rnd.nextGaussian())
      java.util.Arrays.sort(a)
      t -> a
    }.toMap
    new MeasuredStatsProvider(rates, diffs, 1.0, rates.values.sum)
  }

  test("Stats.fromPreds equals the timesSel fold, with repeated and diagonal pairs") {
    val rnd = new Random(4)
    for (_ <- 1 to 200) {
      val n = 1 + rnd.nextInt(8)
      val rates = Vector.fill(n)(0.5 + 10 * rnd.nextDouble())
      val preds = Seq.fill(rnd.nextInt(3 * n))((rnd.nextInt(n), rnd.nextInt(n), 0.01 + rnd.nextDouble()))
      val folded = preds.foldLeft(Stats.unconstrained(rates, 2.0)) { case (s, (i, j, f)) => s.timesSel(i, j, f) }
      assert(Stats.fromPreds(rates, 2.0, preds) == folded)
    }
  }

  test("Planner.buildStats equals the per-predicate timesSel fold on generated patterns") {
    val strategies = Seq(AnyMatch, NextMatch, Contiguity)
    val seen = scala.collection.mutable.Set.empty[String]
    for {
      cat <- Category.all
      size <- 3 to 7
      seed <- 0L until 3L
      strategy <- strategies if strategy != Contiguity || cat == SequenceCat
    } {
      val p = PatternGen.generate(cat, size, nTypes, provider, seed)
      Planner.plan(p, provider, TRIVIAL, strategy).foreach { b =>
        assert(b.stats == foldStats(b.positive, provider), s"$cat n=$size seed $seed $strategy")
        if (b.negs.nonEmpty) seen += "negation"
        if (b.positive.elems.exists(_.kleene)) seen += "Kleene"
        if (b.positive.preds.exists(_.op == SerialSucc)) seen += "contiguity"
        if (b.positive.preds.exists(_.op.isInstanceOf[AttrCmp])) seen += "attribute"
      }
      if (cat == DisjunctionCat) seen += "disjunction"
    }
    assert(seen == Set("negation", "Kleene", "contiguity", "attribute", "disjunction"))
  }

  test("iiRandom and iiGreedy return the orders of the OrderPlan-per-move descent") {
    val rnd = new Random(21)
    for (round <- 0 until 160) {
      val n = 3 + rnd.nextInt(8)
      // Every fourth model draws from a few values so equal-cost moves tie.
      val stats =
        if (round % 4 == 0)
          Stats.fromPreds(Vector.fill(n)(1.0 + rnd.nextInt(2)), 2.0,
            for (i <- 0 until n; j <- i + 1 until n if rnd.nextBoolean()) yield (i, j, 0.5))
        else TestData.randomStats(n, rnd)
      val strategy = if (round % 2 == 0) AnyMatch else NextMatch
      val alpha = if ((round / 2) % 2 == 0) 0.0 else 0.5 + 2 * rnd.nextDouble()
      val last = if (alpha > 0) Some(rnd.nextInt(n)) else None
      val cm = new CostModel(stats, strategy, alpha, last)
      val seed = rnd.nextLong()
      val label = s"round $round n=$n $strategy alpha=$alpha"
      assert(OrderAlgos.iiRandom(cm, seed = seed, restarts = 5) == oldIiRandom(cm, seed, 5), label)
      assert(OrderAlgos.iiGreedy(cm) == OrderPlan(oldDescend(cm, OrderAlgos.greedy(cm).order)), label)
    }
  }
}

/** The planning code the exactness tests compare against, kept as oracles. */
object PlanningExactSpec {

  /** `Planner.buildStats` as a fold of `timesSel`, one matrix copy per predicate. */
  def foldStats(positive: SimplePattern, provider: StatsProvider): Stats = {
    val rates = positive.elems.map { e =>
      val r = provider.rate(e)
      if (e.kleene) Rewrites.kleeneRate(r, positive.window) else r
    }
    positive.preds.foldLeft(Stats.unconstrained(rates, positive.window)) { (s, p) =>
      s.timesSel(p.i, p.j, provider.predSelectivity(positive.elems(p.i), positive.elems(p.j), p.op))
    }
  }

  /** II descent scoring every swap and cycle move as a new `OrderPlan`. */
  def oldDescend(cm: CostModel, start: Vector[Int], maxIters: Int = 1000): Vector[Int] = {
    var cur = start
    var curCost = cm.orderCost(OrderPlan(cur))
    var improved = true
    var iters = 0
    val n = cur.size
    while (improved && iters < maxIters) {
      improved = false
      iters += 1
      var bestCost = curCost
      var bestOrd: Vector[Int] = null
      for (i <- 0 until n; j <- i + 1 until n) {
        val cand = cur.updated(i, cur(j)).updated(j, cur(i))
        val c = cm.orderCost(OrderPlan(cand))
        if (c < bestCost) { bestCost = c; bestOrd = cand }
      }
      for (i <- 0 until n; j <- i + 1 until n; k <- j + 1 until n) {
        val cand = cur.updated(i, cur(k)).updated(j, cur(i)).updated(k, cur(j))
        val c = cm.orderCost(OrderPlan(cand))
        if (c < bestCost) { bestCost = c; bestOrd = cand }
      }
      if (bestOrd != null) { cur = bestOrd; curCost = bestCost; improved = true }
    }
    cur
  }

  def oldIiRandom(cm: CostModel, seed: Long, restarts: Int): OrderPlan = {
    val rnd = new Random(seed)
    val cands = (0 until restarts).map(_ => oldDescend(cm, rnd.shuffle((0 until cm.n).toVector)))
    OrderPlan(cands.minBy(o => cm.orderCost(OrderPlan(o))))
  }
}
