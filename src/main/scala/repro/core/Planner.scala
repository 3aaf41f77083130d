package repro.core

/** Supplies the statistics the planners need: per-type arrival rates and
  * per-predicate selectivities (§3.1). In the evaluation these are *measured*
  * from the stream during preprocessing (§7.2), mirroring the paper.
  */
trait StatsProvider extends Serializable {
  /** Arrival rate of the element's type, events per time unit (before KL rewrite). */
  def rate(elem: Elem): Double
  /** Selectivity of predicate `op` between events of types `a` (left) and `b` (right). */
  def predSelectivity(a: Elem, b: Elem, op: PredOp): Double
}

/** The plan-generation algorithms compared in §7.1. */
sealed abstract class Algo(val name: String, val orderBased: Boolean, val jqpg: Boolean)
    extends Serializable {
  override def toString: String = name
}
case object TRIVIAL     extends Algo("TRIVIAL", true, false)
case object EFREQ       extends Algo("EFREQ", true, false)
case object GREEDY      extends Algo("GREEDY", true, true)
case object II_RANDOM   extends Algo("II-RANDOM", true, true)
case object II_GREEDY   extends Algo("II-GREEDY", true, true)
case object DP_LD       extends Algo("DP-LD", true, true)
case object ZSTREAM     extends Algo("ZSTREAM", false, false)
case object ZSTREAM_ORD extends Algo("ZSTREAM-ORD", false, true)
case object DP_B        extends Algo("DP-B", false, true)

object Algo {
  val orderBased: Vector[Algo] = Vector(TRIVIAL, EFREQ, GREEDY, II_RANDOM, II_GREEDY, DP_LD)
  val treeBased: Vector[Algo]  = Vector(ZSTREAM, ZSTREAM_ORD, DP_B)
  val all: Vector[Algo]        = orderBased ++ treeBased
  val jqpgAlgos: Vector[Algo]  = all.filter(_.jqpg)
}

/** A fully planned conjunctive branch, ready for an evaluation engine.
  *
  * @param positive normalized positive pattern: op=AND, all temporal/contiguity
  *                 constraints materialized as pairwise predicates
  * @param negs     negation checks to attach (§5.3)
  * @param model    the cost model the branch was planned with: its statistics
  *                 over `positive` element positions (KL-rewritten rates,
  *                 §5.2), strategy, α and temporally last element
  * @param plan     order-based or tree-based evaluation plan
  * @param cost     model cost of `plan` under the requested objective
  * @param genNanos wall time spent inside the planning algorithm
  */
final case class PlannedBranch(
    positive: SimplePattern,
    negs: Vector[NegSpec],
    model: CostModel,
    plan: Either[OrderPlan, TreePlan],
    cost: Double,
    genNanos: Long,
) extends Serializable {
  /** The plan as a tree: an order plan as its left-deep tree (Theorem 1). */
  def tree: TreePlan = plan.fold(TreePlan.leftDeep, identity)
}

/** Facade: pattern → rewrites (§5) → statistics → plan (§7.1 algorithm). */
object Planner {

  /** Temporally-last element of an AND-normalized pattern, derived from the
    * transitive closure of its `TsLess` predicates: the unique element every
    * other element must precede, when one exists (§6.1 defines the latency cost
    * only for sequence patterns).
    */
  def lastTemporalElem(sp: SimplePattern): Option[Int] = {
    val n = sp.size
    val before = Array.fill(n, n)(false)
    sp.preds.foreach { case Pred(i, j, TsLess) => before(i)(j) = true; case _ => () }
    // Floyd–Warshall closure; n ≤ 22 so O(n^3) is fine.
    for (k <- 0 until n; i <- 0 until n; j <- 0 until n)
      if (before(i)(k) && before(k)(j)) before(i)(j) = true
    (0 until n).find(j => (0 until n).forall(i => i == j || before(i)(j)))
  }

  /** Planning statistics for a normalized positive pattern: measured rates with
    * the KL rewrite applied, and the product of the predicates' selectivities
    * per element pair.
    */
  def buildStats(positive: SimplePattern, provider: StatsProvider): Stats = {
    val rates = positive.elems.map { e =>
      val r = provider.rate(e)
      if (e.kleene) Rewrites.kleeneRate(r, positive.window) else r
    }
    Stats.fromPreds(rates, positive.window, positive.preds.map { p =>
      (p.i, p.j, provider.predSelectivity(positive.elems(p.i), positive.elems(p.j), p.op))
    })
  }

  private def runAlgo(algo: Algo, cm: CostModel): Either[OrderPlan, TreePlan] = algo match {
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

  /** Build one planned branch: normalize a simple pattern (contiguity
    * predicates if requested, SEQ→AND, negation split, §5), measure its
    * statistics, build its cost model, time `choose` on that model and cost
    * the plan it returns. The one place a branch is planned.
    */
  def branch(sp: SimplePattern, provider: StatsProvider, strategy: Strategy, alpha: Double)(
      choose: CostModel => Either[OrderPlan, TreePlan]): PlannedBranch = {
    val sp1 = if (strategy == Contiguity && sp.op == SEQ) Rewrites.contiguityPreds(sp) else sp
    val (positive, negs) = Rewrites.splitNegation(Rewrites.seqToAnd(sp1))
    val cm = new CostModel(buildStats(positive, provider), strategy, alpha, lastTemporalElem(positive))
    val t0 = System.nanoTime()
    val plan = choose(cm)
    val dt = System.nanoTime() - t0
    PlannedBranch(positive, negs, cm, plan, plan.fold(cm.orderCost, cm.treeCost), dt)
  }

  /** Plan one simple (non-OR) pattern. */
  def planSimple(
      sp: SimplePattern,
      provider: StatsProvider,
      algo: Algo,
      strategy: Strategy = AnyMatch,
      alpha: Double = 0.0,
  ): PlannedBranch = branch(sp, provider, strategy, alpha)(runAlgo(algo, _))

  /** Plan a (possibly nested) pattern: DNF into conjunctive branches (§5.4), one
    * independently planned branch per disjunct. The detection result is the
    * union of branch matches.
    */
  def plan(
      p: Pattern,
      provider: StatsProvider,
      algo: Algo,
      strategy: Strategy = AnyMatch,
      alpha: Double = 0.0,
  ): Vector[PlannedBranch] = p.root match {
    case OpNode(op, children) if op != OR && children.forall(_.isInstanceOf[LeafNode]) =>
      Vector(planSimple(SimplePattern(op, p.leaves, p.preds, p.window), provider, algo, strategy, alpha))
    case _ =>
      Rewrites.dnf(p).map(planSimple(_, provider, algo, strategy, alpha))
  }
}
