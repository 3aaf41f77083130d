package repro.spark

import org.apache.spark.sql.{Column, DataFrame}
import org.apache.spark.sql.functions._
import repro.core._

/** Executes a CEP evaluation plan as a Catalyst multi-join — the Theorem 1/2
  * reduction made executable: an order-based plan becomes a left-deep join tree,
  * a tree-based plan a bushy join tree, over per-type event "relations" whose
  * cardinality is the windowed event count.
  *
  * Supports pure patterns (no NOT/KL) in AND-normal form; each pairwise
  * predicate becomes a join condition, and every cross pair additionally carries
  * the window constraint |ts_i − ts_j| ≤ W, exactly as the engines enforce it at
  * each extension step. Match-set equality with the engine and with DuckDB is
  * asserted in the tests.
  */
object JoinPlanRunner {

  private[repro] val attrCols = Vector("diff", "price")

  /** The per-element "relation": events of the element's type, columns prefixed
    * `e{i}_` so the join tree and the Catalyst reorder rule can attribute any
    * column to its pattern element.
    */
  def elemDF(events: DataFrame, positive: SimplePattern, i: Int): DataFrame = {
    val e = positive.elems(i)
    events
      .filter(col("typeId") === e.typeId)
      .select(
        col("ts") as s"e${i}_ts",
        col("serial") as s"e${i}_serial",
        col("diff") as s"e${i}_diff",
        col("price") as s"e${i}_price",
      )
  }

  /** Render one pairwise predicate as a Catalyst column. */
  def predColumn(p: Pred): Column = p.op match {
    case TsLess     => col(s"e${p.i}_ts") < col(s"e${p.j}_ts")
    case SerialSucc => col(s"e${p.j}_serial") === col(s"e${p.i}_serial") + 1
    case AttrCmp(a, shift, less) =>
      val l = col(s"e${p.i}_${attrCols(a)}") + lit(shift)
      val r = col(s"e${p.j}_${attrCols(a)}")
      if (less) l < r else l > r
  }

  /** Join condition between two element sets: all predicates spanning the sets
    * plus the pairwise window constraints.
    */
  private[spark] def joinCondition(positive: SimplePattern, left: Set[Int], right: Set[Int]): Option[Column] = {
    val w = positive.window
    val preds = positive.preds.collect {
      case p if (left(p.i) && right(p.j)) || (left(p.j) && right(p.i)) => predColumn(p)
    }
    val windows = for (i <- left.toVector.sorted; j <- right.toVector.sorted)
      yield abs(col(s"e${i}_ts") - col(s"e${j}_ts")) <= lit(w)
    (preds ++ windows).reduceOption(_ && _)
  }

  /** Build the join DataFrame for a tree plan; also returns every intermediate
    * (element set → DataFrame) for cardinality accounting.
    */
  def buildTree(
      events: DataFrame,
      positive: SimplePattern,
      plan: TreePlan,
  ): (DataFrame, Vector[(Set[Int], DataFrame)]) = {
    val inters = Vector.newBuilder[(Set[Int], DataFrame)]
    def build(t: TreePlan): (DataFrame, Set[Int]) = t match {
      case LeafPlan(e) =>
        val df = elemDF(events, positive, e)
        inters += ((Set(e), df))
        (df, Set(e))
      case NodePlan(l, r) =>
        val (ld, ls) = build(l)
        val (rd, rs) = build(r)
        val joined = joinCondition(positive, ls, rs) match {
          case Some(c) => ld.join(rd, c)
          case None    => ld.crossJoin(rd)
        }
        inters += ((ls ++ rs, joined))
        (joined, ls ++ rs)
    }
    val (df, _) = build(plan)
    (df, inters.result())
  }

  /** Run a planned branch (pure patterns only) and return the match relation
    * projected to the per-element serial columns.
    */
  def run(events: DataFrame, branch: PlannedBranch): DataFrame = {
    val positive = branch.positive
    require(branch.negs.isEmpty && positive.isPure, "join runner supports pure patterns")
    val (df, _) = buildTree(events, positive, branch.tree)
    df.select(positive.elems.indices.map(i => col(s"e${i}_serial")): _*)
  }

  /** Row counts of every intermediate join result — the empirical analogue of
    * the `Cost_LDJ`/`Cost_BJ` node cardinalities (Theorems 1 and 2).
    */
  def intermediateCounts(events: DataFrame, branch: PlannedBranch): Vector[(Set[Int], Long)] = {
    val (_, inters) = buildTree(events, branch.positive, branch.tree)
    inters.map { case (s, df) => (s, df.count()) }
  }
}
