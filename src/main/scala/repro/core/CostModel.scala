package repro.core

/** Event selection strategies (§6.2). Strict and partition contiguity share the
  * skip-till-next cost model per the paper; we implement strict contiguity.
  */
sealed trait Strategy extends Serializable
case object AnyMatch extends Strategy
case object NextMatch extends Strategy
case object Contiguity extends Strategy

/** Cost models of §4.1, §4.2, §6.1 and §6.2, over a single [[Stats]] instance.
  *
  * All costs are expressed through the expected number of partial matches for a
  * *set* of pattern elements (a bitmask), which is order-independent:
  *
  *  - skip-till-any (§4.1): `PM(S) = Π_{i∈S} (W·r_i·sel_ii) · Π_{i<j∈S} sel_ij`
  *  - skip-till-next (§6.2): `PM(S) = W·min_{i∈S} r_i · Π_{i≤j∈S} sel_ij`
  *
  * The hybrid objective of §6.1 is `Cost^trpt + α·Cost^lat`; the latency term
  * requires knowing the temporally last element (`lastElem`), defined for
  * sequence patterns (None ⇒ latency contribution 0, as for pure conjunctions
  * without an output profiler).
  *
  * @param stats    statistics indexed by pattern element position
  * @param strategy event selection strategy the engine will run under
  * @param alpha    throughput/latency trade-off weight (§6.1), 0 = pure throughput
  * @param lastElem temporally last element position, for latency costs
  */
final class CostModel(
    val stats: Stats,
    val strategy: Strategy = AnyMatch,
    val alpha: Double = 0.0,
    val lastElem: Option[Int] = None,
) extends Serializable {
  val n: Int = stats.n
  private val W = stats.window
  private val card = new Array[Double](n) // W·r_i·sel_ii
  private val rate = new Array[Double](n)
  private val selA = Array.ofDim[Double](n, n)
  locally {
    var i = 0
    while (i < n) {
      val row = stats.sel(i)
      card(i) = stats.card(i)
      rate(i) = stats.rates(i)
      var j = 0
      while (j < n) { selA(i)(j) = row(j); j += 1 }
      i += 1
    }
  }

  private def nextLike: Boolean = strategy != AnyMatch

  /** `Π_{j∈set, ascending} sel_ij`, from 1. */
  private def selRow(i: Int, set: Int): Double = {
    var p = 1.0
    var rest = set
    while (rest != 0) { p *= selA(i)(java.lang.Integer.numberOfTrailingZeros(rest)); rest &= rest - 1 }
    p
  }

  /** The one `PM(S)` recurrence: extend `rest` by `i`, below all its members.
    * `v` is `PM(rest)` under skip-till-any and `Π_{a≤b∈rest} sel_ab` under
    * skip-till-next, whose `PM` is `W·min r·v` ([[nextPm]]); 1 for the empty set.
    */
  private def step(v: Double, i: Int, rest: Int): Double =
    if (nextLike) v * selRow(i, rest | (1 << i)) else v * card(i) * selRow(i, rest)

  private def nextPm(minRate: Double, selP: Double): Double = W * minRate * selP

  // Optional table of pm over all 2^n masks: `step` applied in ascending mask
  // order, each mask extending itself without its lowest bit, so it caches
  // exactly what `pm` folds. The DP planners trigger it (n=22 ⇒ 4M entries,
  // ~32 MB, ~100M ops — the Fig 17 scale); one-off queries fold directly.
  @transient private var tabRef: Array[Double] = _

  /** Build (once) the full pm table; no-op when n > 24. */
  def ensureTable(): Unit = if (tabRef == null && n <= 24) {
    val size = 1 << n
    val t = new Array[Double](size)
    val minR = if (nextLike) new Array[Double](size) else null
    t(0) = 1.0
    if (nextLike) minR(0) = Double.MaxValue
    var mask = 1
    while (mask < size) {
      val lb = java.lang.Integer.numberOfTrailingZeros(mask)
      val prev = mask & (mask - 1)
      t(mask) = step(t(prev), lb, prev)
      if (nextLike) minR(mask) = math.min(minR(prev), rate(lb))
      mask += 1
    }
    if (nextLike) {
      mask = 1
      while (mask < size) { t(mask) = nextPm(minR(mask), t(mask)); mask += 1 }
    }
    tabRef = t
  }

  /** Expected number of live partial matches for element set `mask` (strategy
    * aware): the table entry, or `step` folded from the highest element down.
    */
  def pm(mask: Int): Double =
    if (mask == 0) 0.0
    else if (tabRef != null) tabRef(mask)
    else {
      var v = 1.0
      var mn = Double.MaxValue
      var rest = 0
      while (rest != mask) {
        val i = 31 - java.lang.Integer.numberOfLeadingZeros(mask & ~rest)
        v = step(v, i, rest)
        mn = math.min(mn, rate(i))
        rest |= 1 << i
      }
      if (nextLike) nextPm(mn, v) else v
    }

  /** Per-step weight applied by `Cost_ord`: the paper's `Cost_ord^next` sums
    * `W·m[k]` while the skip-till-any version sums `PM(k)` directly.
    */
  private def stepScale: Double = if (nextLike) W else 1.0

  /** Incremental order cost: the cost added when `placed` is appended and the
    * prefix becomes `maskAfter`. Includes the α-weighted latency term, which
    * materializes when the temporally last element is placed (everything not yet
    * placed succeeds it in the plan, §6.1).
    */
  def orderStep(maskAfter: Int, placed: Int): Double = {
    var c = stepScale * pm(maskAfter)
    if (alpha > 0 && lastElem.contains(placed)) {
      var i = 0
      var lat = 0.0
      while (i < n) { if ((maskAfter & (1 << i)) == 0) lat += W * rate(i); i += 1 }
      c += alpha * lat
    }
    c
  }

  /** `Cost_ord` (§4.1) / `Cost_ord^next` (§6.2), plus `α·Cost_ord^lat` (§6.1). */
  def orderCost(o: OrderPlan): Double = orderCostOf(o.order.toArray)

  /** `orderCost` of an order held in an array: the steps summed in plan order. */
  private[core] def orderCostOf(order: Array[Int]): Double = {
    var mask = 0
    var c = 0.0
    var p = 0
    while (p < order.length) { val e = order(p); mask |= 1 << e; c += orderStep(mask, e); p += 1 }
    c
  }

  /** `Cost_ord^lat` alone (§6.1): `Σ_{T_i ∈ Succ_O(T_n)} W·r_i`. */
  def orderLatency(o: OrderPlan): Double = lastElem match {
    case None => 0.0
    case Some(last) =>
      o.order.drop(o.planPos(last) + 1).map(i => W * rate(i)).sum
  }

  /** Cost added when two subtrees with masks `lMask`, `rMask` are joined under a
    * new internal node. Includes the α-weighted latency contribution: each node
    * on the path from the `lastElem` leaf to the root adds `PM(sibling)` (§6.1).
    */
  def treeCombine(lMask: Int, rMask: Int): Double = {
    var c = pm(lMask | rMask)
    if (alpha > 0) lastElem.foreach { last =>
      val lb = 1 << last
      if ((lMask & lb) != 0) c += alpha * pm(rMask)
      else if ((rMask & lb) != 0) c += alpha * pm(lMask)
    }
    c
  }

  /** `Cost_tree` (§4.2) / `Cost_tree^next` (§6.2), plus `α·Cost_tree^lat` (§6.1):
    * sum of PM over all nodes, leaves included.
    */
  def treeCost(t: TreePlan): Double = t match {
    case LeafPlan(e) => pm(1 << e)
    case NodePlan(l, r) => treeCost(l) + treeCost(r) + treeCombine(l.mask, r.mask)
  }

  /** `Cost_tree^lat` alone (§6.1). */
  def treeLatency(t: TreePlan): Double = lastElem match {
    case None => 0.0
    case Some(last) =>
      def walk(node: TreePlan): Option[Double] = node match {
        case LeafPlan(e) => if (e == last) Some(0.0) else None
        case NodePlan(l, r) =>
          walk(l).map(_ + pm(r.mask)).orElse(walk(r).map(_ + pm(l.mask)))
      }
      walk(t).getOrElse(0.0)
  }
}
