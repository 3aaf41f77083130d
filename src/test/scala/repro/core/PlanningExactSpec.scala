package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.core.TestData.StatsOps
import repro.data._
import scala.util.Random

/** Exactness of the planning set-up: `Planner.buildStats` equals the
  * per-predicate `timesSel` fold, the array-scored II descent returns the
  * order of the descent that builds an `OrderPlan` per move, the one branch
  * builder plans, measures and costs exactly as normalizing, building a fresh
  * model per call and summing the costs by their definitions does, and one
  * model shared by all planners gives the plans and costs of fresh models,
  * because its `pm` reads the same bits with and without the 2^n table.
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
        assert(b.model.stats == foldStats(b.positive, provider), s"$cat n=$size seed $seed $strategy")
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

  test("Planner.plan equals normalizing and planning each branch on a fresh model, bit for bit") {
    var checked = 0
    for {
      cat <- Category.all
      size <- 3 to 7
      seed <- 0L until 2L
      strategy <- Seq(AnyMatch, NextMatch, Contiguity) if strategy != Contiguity || cat == SequenceCat
      alpha <- Seq(0.0, 0.7)
    } {
      val p = PatternGen.generate(cat, size, nTypes, provider, seed)
      for (algo <- Algo.all) {
        val label = s"$cat n=$size seed $seed $strategy alpha=$alpha $algo"
        val got = Planner.plan(p, provider, algo, strategy, alpha)
        val want = oldPlan(p, provider, algo, strategy, alpha)
        assert(got.size == want.size, label)
        got.zip(want).foreach { case (b, o) =>
          assert(b.positive == o.positive && b.negs == o.negs, label)
          assert(b.model.stats == o.stats && b.model.lastElem == o.lastElem, label)
          assert(b.model.strategy == strategy && b.model.alpha == alpha, label)
          assert(b.plan == o.plan, label)
          assert(bits(b.cost) == bits(o.cost), s"$label: ${b.cost} vs ${o.cost}")
          checked += 1
        }
      }
    }
    assert(checked > 2000)
  }

  test("one model shared by the nine planners, in either order, plans and costs as fresh models, bit for bit") {
    var checked = 0
    for {
      cat <- Category.all
      size <- 3 to 7
      seed <- 0L until 2L
      strategy <- Seq(AnyMatch, NextMatch, Contiguity) if strategy != Contiguity || cat == SequenceCat
      alpha <- Seq(0.0, 0.7)
      sp <- simpleBranches(PatternGen.generate(cat, size, nTypes, provider, seed))
    } {
      val fresh = Algo.all.map(algo => planAndCost(algo, normalize(sp, provider, strategy, alpha)._3))
      for (order <- Seq(Algo.all, Algo.all.reverse)) {
        val shared = normalize(sp, provider, strategy, alpha)._3
        val got = order.map(algo => algo -> planAndCost(algo, shared)).toMap
        Algo.all.zip(fresh).foreach { case (algo, (plan, cost)) =>
          val label = s"$cat n=$size seed $seed $strategy alpha=$alpha $algo, order ${order.head} first"
          assert(got(algo)._1 == plan, label)
          assert(bits(got(algo)._2) == bits(cost), s"$label: ${got(algo)._2} vs $cost")
          checked += 1
        }
      }
    }
    assert(checked > 4000)
  }

  test("CostModel: pm of every mask reads the same bits before and after ensureTable") {
    val rnd = new Random(34)
    for (round <- 0 until 40) {
      val n = 1 + round % 12
      val strategy = if (round % 2 == 0) AnyMatch else NextMatch
      val cm = new CostModel(TestData.randomStats(n, rnd), strategy)
      val before = (0 until (1 << n)).map(m => bits(cm.pm(m)))
      cm.ensureTable()
      assert((0 until (1 << n)).map(m => bits(cm.pm(m))) == before, s"round $round n=$n $strategy")
    }
  }

  test("CostModel: pm of every mask and treeCost of every tree equal their definitions, bit for bit") {
    val rnd = new Random(33)
    for (round <- 0 until 24) {
      val n = 3 + round % 3
      val stats = TestData.randomStats(n, rnd)
      val strategy = if (round % 2 == 0) AnyMatch else NextMatch
      val cm = new CostModel(stats, strategy, alpha = 0.25 + rnd.nextDouble(), lastElem = Some(rnd.nextInt(n)))
      val label = s"round $round n=$n $strategy"
      for (mask <- 1 until (1 << n))
        assert(bits(cm.pm(mask)) == bits(pmByDefinition(stats, strategy, mask)), s"$label mask $mask")
      for (t <- PlanOracles.enumerate((0 until n).toVector)) {
        assert(t.mask == t.leaves.map(1 << _).sum, s"$label $t")
        assert(bits(cm.treeCost(t)) == bits(treeCostByDefinition(cm, t)), s"$label $t")
      }
      for (o <- (0 until n).toVector.permutations)
        assert(bits(cm.orderCost(OrderPlan(o))) == bits(orderCostByDefinition(cm, o)), s"$label $o")
    }
  }
}

/** The planning code the exactness tests compare against, kept as oracles. */
object PlanningExactSpec {

  def bits(x: Double): Long = java.lang.Double.doubleToRawLongBits(x)

  /** One branch as the oracle plans it. */
  final case class OldBranch(positive: SimplePattern, negs: Vector[NegSpec], stats: Stats,
                             lastElem: Option[Int], plan: Either[OrderPlan, TreePlan], cost: Double)

  /** The simple patterns `Planner.plan` plans: the pattern itself when it is
    * one flat operator, else its DNF branches.
    */
  def simpleBranches(p: Pattern): Vector[SimplePattern] = p.root match {
    case OpNode(op, children) if op != OR && children.forall(_.isInstanceOf[LeafNode]) =>
      Vector(SimplePattern(op, p.leaves, p.preds, p.window))
    case _ => Rewrites.dnf(p)
  }

  /** One branch normalized (contiguity predicates, SEQ→AND, negation split)
    * and modelled on a fresh `CostModel` over `buildStats` and
    * `lastTemporalElem`.
    */
  def normalize(sp: SimplePattern, provider: StatsProvider, strategy: Strategy,
                alpha: Double): (SimplePattern, Vector[NegSpec], CostModel) = {
    val sp1 = if (strategy == Contiguity && sp.op == SEQ) Rewrites.contiguityPreds(sp) else sp
    val (positive, negs) = Rewrites.splitNegation(Rewrites.seqToAnd(sp1))
    val cm = new CostModel(Planner.buildStats(positive, provider), strategy, alpha,
      Planner.lastTemporalElem(positive))
    (positive, negs, cm)
  }

  /** The algorithm's plan on `cm`, and its cost summed by definition. */
  def planAndCost(algo: Algo, cm: CostModel): (Either[OrderPlan, TreePlan], Double) = {
    val plan: Either[OrderPlan, TreePlan] = algo match {
      case TRIVIAL     => Left(OrderAlgos.trivial(cm.n))
      case EFREQ       => Left(OrderAlgos.efreq(cm.stats))
      case GREEDY      => Left(OrderAlgos.greedy(cm))
      case II_RANDOM   => Left(OrderAlgos.iiRandom(cm))
      case II_GREEDY   => Left(OrderAlgos.iiGreedy(cm))
      case DP_LD       => Left(OrderAlgos.dpLeftDeep(cm))
      case ZSTREAM     => Right(TreeAlgos.zstream(cm, (0 until cm.n).toVector))
      case ZSTREAM_ORD => Right(TreeAlgos.zstreamOrd(cm))
      case DP_B        => Right(TreeAlgos.dpBushy(cm))
    }
    (plan, plan.fold(o => orderCostByDefinition(cm, o.order), t => treeCostByDefinition(cm, t)))
  }

  /** `Planner.plan` written out: per simple branch, `normalize` on a fresh
    * model, the algorithm, and the plan's cost summed by its definition.
    */
  def oldPlan(p: Pattern, provider: StatsProvider, algo: Algo, strategy: Strategy,
              alpha: Double): Vector[OldBranch] =
    simpleBranches(p).map { sp =>
      val (positive, negs, cm) = normalize(sp, provider, strategy, alpha)
      val (plan, cost) = planAndCost(algo, cm)
      OldBranch(positive, negs, cm.stats, cm.lastElem, plan, cost)
    }

  /** `Cost_ord`: the order's steps summed front to back. */
  def orderCostByDefinition(cm: CostModel, order: Vector[Int]): Double =
    order.foldLeft((0, 0.0)) { case ((mask, c), e) =>
      (mask | (1 << e), c + cm.orderStep(mask | (1 << e), e))
    }._2

  /** `Cost_tree`: left subtree, right subtree, then the node, with each node's
    * mask recomputed from its leaves.
    */
  def treeCostByDefinition(cm: CostModel, t: TreePlan): Double = t match {
    case LeafPlan(e) => cm.pm(1 << e)
    case NodePlan(l, r) =>
      val (lm, rm) = (l.leaves.map(1 << _).sum, r.leaves.map(1 << _).sum)
      treeCostByDefinition(cm, l) + treeCostByDefinition(cm, r) + cm.treeCombine(lm, rm)
  }

  /** `PM(S)` computed from `Stats` directly (§4.1, §6.2), in the model's
    * multiplication order: from the highest element down, each element `i`
    * multiplies the value of the elements above it by `card(i)` and by its
    * selectivities to them in ascending order (skip-till-any), or by its
    * selectivities to itself and to them (skip-till-next, then `W·min r`).
    */
  def pmByDefinition(s: Stats, strategy: Strategy, mask: Int): Double = {
    val in = (0 until s.n).filter(i => (mask & (1 << i)) != 0)
    def row(i: Int, js: Seq[Int]): Double = js.foldLeft(1.0)((acc, j) => acc * s.sel(i)(j))
    val v = in.indices.reverse.foldLeft(1.0) { (v, k) =>
      val i = in(k)
      if (strategy == AnyMatch) v * s.card(i) * row(i, in.drop(k + 1)) else v * row(i, in.drop(k))
    }
    if (strategy == AnyMatch) v
    else s.window * in.foldLeft(Double.MaxValue)((acc, i) => math.min(acc, s.rates(i))) * v
  }

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
