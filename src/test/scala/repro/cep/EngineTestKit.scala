package repro.cep

import repro.core._
import scala.util.Random

/** Helpers shared by the engine test suites: hand-built streams and planned
  * branches with explicit plans.
  */
object EngineTestKit {

  val provider = new repro.core.TestData.ConstProvider()

  def ev(typeId: Int, ts: Double, serial: Long, diff: Double = 0.0): Event =
    Event(typeId, ts, serial, Array(diff, 100.0))

  def elems(n: Int, negAt: Set[Int] = Set.empty, klAt: Set[Int] = Set.empty): Vector[Elem] =
    Vector.tabulate(n)(i => Elem(i, s"T$i", negated = negAt(i), kleene = klAt(i)))

  /** Normalize a simple pattern and attach an explicit order plan. */
  def orderBranch(
      sp: SimplePattern,
      order: Vector[Int],
      strategy: Strategy = AnyMatch,
  ): PlannedBranch = Planner.branch(sp, provider, strategy, 0.0)(_ => Left(OrderPlan(order)))

  /** Normalize a simple pattern and attach an explicit tree plan. */
  def treeBranch(
      sp: SimplePattern,
      tree: TreePlan,
      strategy: Strategy = AnyMatch,
  ): PlannedBranch = Planner.branch(sp, provider, strategy, 0.0)(_ => Right(tree))

  def runNfa(sp: SimplePattern, order: Vector[Int], events: Seq[Event],
             strategy: Strategy = AnyMatch, config: EngineConfig = EngineConfig()): RunResult =
    new TreeEngine(orderBranch(sp, order, strategy), config).run(events.toIndexedSeq)

  def runTree(sp: SimplePattern, tree: TreePlan, events: Seq[Event],
              strategy: Strategy = AnyMatch, config: EngineConfig = EngineConfig()): RunResult =
    new TreeEngine(treeBranch(sp, tree, strategy), config).run(events.toIndexedSeq)

  def matchSet(r: RunResult): Set[Vector[Vector[Long]]] = r.matches.map(_.byElem).toSet

  /** Random pattern over types 0..n-1: a few attribute predicates, at most
    * one interior negation and at most one Kleene element.
    */
  def randomPattern(rnd: Random, n: Int, withNeg: Boolean, withKl: Boolean): SimplePattern = {
    val negAt = if (withNeg && n >= 3) Set(1 + rnd.nextInt(n - 2)) else Set.empty[Int]
    val free = (0 until n).filterNot(negAt)
    val klAt: Set[Int] =
      if (withKl) Set(free(rnd.nextInt(free.size))) else Set.empty[Int]
    val es = elems(n, negAt = negAt, klAt = klAt)
    val nPreds = rnd.nextInt(n)
    val pairs = rnd.shuffle((for (i <- 0 until n; j <- i + 1 until n) yield (i, j)).toVector).take(nPreds)
    val preds = pairs.map { case (i, j) =>
      Pred(i, j, AttrCmp(0, (rnd.nextDouble() - 0.5) * 2, less = rnd.nextBoolean()))
    }
    // Negation is defined for sequence patterns (§5.3: the negated event is
    // bounded by its SEQ neighbours); in a pure AND there is no temporal bound
    // on the negated event and "check at the earliest point" would depend on
    // the plan. The workload generator follows the same rule.
    val op = if (withNeg || rnd.nextBoolean()) SEQ else AND
    SimplePattern(op, es, preds, window = 1.5)
  }

  /** Brute-force skip-till-any match set of a normalized branch: every binding
    * of the positive elements (a non-empty event set for a Kleene element)
    * whose events span at most the window and satisfy every predicate, and
    * that no negated event blocks (§5.3). Exponential; tiny streams only.
    */
  def bruteForce(b: PlannedBranch, events: Seq[Event]): Set[Vector[Vector[Long]]] = {
    val pos = b.positive
    val W = pos.window
    def all(v: Vector[Event])(f: Event => Boolean) = v.forall(f)
    def holds(op: PredOp, l: Vector[Event], r: Vector[Event]) =
      all(l)(x => all(r)(y => PredEval.eval(op, x, y)))
    // Candidate bindings per element: Kleene sets are anchored at their
    // earliest member and stay within the window of it.
    val cands: Vector[Vector[Vector[Event]]] = pos.elems.map { el =>
      val evs = events.filter(_.typeId == el.typeId).toVector
      if (!el.kleene) evs.map(Vector(_))
      else evs.flatMap { first =>
        val later = evs.filter(e => e.serial > first.serial && e.ts - first.ts <= W)
        (0 until (1 << later.size)).map { m =>
          first +: later.indices.filter(i => (m & (1 << i)) != 0).map(later).toVector
        }
      }
    }
    def blocked(bound: Vector[Vector[Event]]): Boolean = b.negs.exists { spec =>
      events.exists { x =>
        x.typeId == spec.elem.typeId &&
          spec.dependsOn.forall(d => all(bound(d))(e => math.abs(e.ts - x.ts) <= W)) &&
          spec.preds.forall { case NegPred(i, op, negOnLeft) =>
            if (negOnLeft) holds(op, Vector(x), bound(i)) else holds(op, bound(i), Vector(x))
          }
      }
    }
    def go(i: Int, bound: Vector[Vector[Event]], lo: Double, hi: Double): Iterator[Vector[Vector[Event]]] =
      if (i == pos.size) Iterator(bound)
      else cands(i).iterator.flatMap { c =>
        val (l, h) = (math.min(lo, c.head.ts), math.max(hi, c.last.ts))
        if (h - l > W) Iterator.empty else go(i + 1, bound :+ c, l, h)
      }
    go(0, Vector.empty, Double.PositiveInfinity, Double.NegativeInfinity)
      .filter(bound => pos.preds.forall(p => holds(p.op, bound(p.i), bound(p.j))))
      .filterNot(blocked)
      .map(_.map(_.map(_.serial)))
      .toSet
  }

  /** Random stream of `count` events over `nTypes` types in [0, horizon]. */
  def randomStream(nTypes: Int, count: Int, horizon: Double, rnd: Random): Vector[Event] =
    Vector.tabulate(count) { i => (rnd.nextInt(nTypes), rnd.nextDouble() * horizon, rnd.nextGaussian()) }
      .sortBy(_._2)
      .zipWithIndex
      .map { case ((t, ts, d), serial) => ev(t, ts, serial.toLong, d) }
}
