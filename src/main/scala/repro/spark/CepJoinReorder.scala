package repro.spark

import org.apache.spark.sql.catalyst.expressions.{And, Expression}
import org.apache.spark.sql.catalyst.plans.Inner
import org.apache.spark.sql.catalyst.plans.logical.{Join, JoinHint, LogicalPlan}
import org.apache.spark.sql.catalyst.rules.Rule
import repro.core.{CostModel, OrderAlgos, Stats}
import scala.util.DynamicVariable

/** Per-query CEP statistics handed to the optimizer rule. The runner (or test)
  * installs the element-indexed [[Stats]] before executing a CEP join query;
  * element i is recognized in the logical plan by its `e{i}_` column prefix.
  * The stats are scoped to the calling thread, so concurrent queries each
  * plan with their own.
  */
object CepStatsRegistry {
  private val stats = new DynamicVariable[Option[Stats]](None)
  def current: Option[Stats] = stats.value
  def withStats[T](s: Stats)(body: => T): T = stats.withValue(Some(s))(body)
}

/** Catalyst optimizer rule (injected via `spark.experimental.extraOptimizations`)
  * that reorders a CEP multi-join according to the paper's DP-LD planner — the
  * JQPG-for-CPG adaptation expressed at the query-optimizer layer.
  *
  * It fires on inner-join trees whose leaves each expose the `e{i}_serial`
  * column of exactly the elements registered in [[CepStatsRegistry]]; the join
  * chain is flattened, the optimal left-deep order computed with `Cost_LDJ`
  * (§4.1), and the tree rebuilt with every conjunct attached at the lowest join
  * that binds its references. A no-op when the chain already follows the optimal
  * order, so the fixed-point optimizer batch terminates.
  */
object CepJoinReorder extends Rule[LogicalPlan] {

  private val serialCol = raw"e(\d+)_serial".r

  private def splitConjuncts(e: Expression): Seq[Expression] = e match {
    case And(l, r) => splitConjuncts(l) ++ splitConjuncts(r)
    case other     => Seq(other)
  }

  /** Flatten a tree of inner joins into (leaves, conjuncts), left-to-right. */
  private def flatten(plan: LogicalPlan): (Vector[LogicalPlan], Vector[Expression]) = plan match {
    case Join(l, r, Inner, cond, _) =>
      val (ll, lc) = flatten(l)
      val (rl, rc) = flatten(r)
      (ll ++ rl, lc ++ rc ++ cond.toVector.flatMap(splitConjuncts))
    case leaf => (Vector(leaf), Vector.empty)
  }

  /** Pattern element index of a leaf plan, from its `e{i}_serial` output column. */
  private def elemOf(leaf: LogicalPlan): Option[Int] =
    leaf.output.collectFirst { case a if serialCol.matches(a.name) =>
      val serialCol(i) = a.name
      i.toInt
    }

  override def apply(plan: LogicalPlan): LogicalPlan = CepStatsRegistry.current match {
    case None => plan
    case Some(stats) =>
      plan.transformDown {
        case j @ Join(_, _, Inner, _, _) =>
          rewrite(j, stats).getOrElse(j)
      }
  }

  private def rewrite(root: Join, stats: Stats): Option[LogicalPlan] = {
    val (leaves, conjuncts) = flatten(root)
    if (leaves.size != stats.n || leaves.size < 3) return None
    val elems = leaves.map(elemOf)
    if (elems.exists(_.isEmpty)) return None
    val byElem = elems.flatten.zip(leaves).toMap
    if (byElem.size != stats.n) return None

    val cm = new CostModel(stats)
    val order = OrderAlgos.dpLeftDeep(cm).order
    if (order == elems.flatten && isLeftDeep(root)) return None // already optimal

    // Rebuild left-deep in DP order; attach each conjunct at the lowest join
    // binding all of its references.
    var remaining = conjuncts
    var current: LogicalPlan = byElem(order.head)
    order.tail.foreach { e =>
      val right = byElem(e)
      val avail = current.outputSet ++ right.outputSet
      val (here, later) = remaining.partition(_.references.subsetOf(avail))
      remaining = later
      current = Join(current, right, Inner, here.reduceOption(And), JoinHint.NONE)
    }
    require(remaining.isEmpty, s"unattachable join conditions: $remaining")
    Some(current)
  }

  private def isLeftDeep(plan: LogicalPlan): Boolean = plan match {
    case Join(l, r, Inner, _, _) => !r.isInstanceOf[Join] && isLeftDeep(l)
    case _                       => true
  }
}
