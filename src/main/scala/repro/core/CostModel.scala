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

  // Optional precomputed pm table over all 2^n masks, built incrementally in
  // O(2^n·n) via the lowest-bit recurrence. The DP planners trigger it (n=22 ⇒
  // 4M entries, ~32 MB, ~100M ops — the Fig 17 scale); direct evaluation is
  // kept for one-off queries.
  @transient private var tabRef: Array[Double] = _

  /** Build (once) the full pm table; no-op when n > 24. */
  def ensureTable(): Unit = if (tabRef == null && n <= 24) {
    val size = 1 << n
    val t = new Array[Double](size)
    if (!nextLike) {
      var i = 0
      while (i < n) { t(1 << i) = card(i); i += 1 }
      var mask = 1
      while (mask < size) {
        if (java.lang.Integer.bitCount(mask) >= 2) {
          val lb = java.lang.Integer.numberOfTrailingZeros(mask)
          val prev = mask & (mask - 1)
          var selProdLb = 1.0
          var j = 0
          var rest = prev
          while (rest != 0) {
            j = java.lang.Integer.numberOfTrailingZeros(rest)
            selProdLb *= selA(lb)(j)
            rest &= rest - 1
          }
          t(mask) = t(prev) * card(lb) * selProdLb
        }
        mask += 1
      }
    } else {
      val selP = new Array[Double](size)
      val minR = new Array[Double](size)
      var i = 0
      while (i < n) {
        selP(1 << i) = selA(i)(i); minR(1 << i) = rate(i)
        t(1 << i) = W * minR(1 << i) * selP(1 << i)
        i += 1
      }
      var mask = 1
      while (mask < size) {
        if (java.lang.Integer.bitCount(mask) >= 2) {
          val lb = java.lang.Integer.numberOfTrailingZeros(mask)
          val prev = mask & (mask - 1)
          var p = selA(lb)(lb)
          var rest = prev
          while (rest != 0) {
            val j = java.lang.Integer.numberOfTrailingZeros(rest)
            p *= selA(lb)(j)
            rest &= rest - 1
          }
          selP(mask) = selP(prev) * p
          minR(mask) = math.min(minR(prev), rate(lb))
          t(mask) = W * minR(mask) * selP(mask)
        }
        mask += 1
      }
    }
    tabRef = t
  }

  /** Π of selectivities `sel_{i,j}` over all pairs i ≤ j inside the mask. */
  private def selProd(mask: Int): Double = {
    var p = 1.0
    var i = 0
    while (i < n) {
      if ((mask & (1 << i)) != 0) {
        p *= selA(i)(i)
        var j = i + 1
        while (j < n) {
          if ((mask & (1 << j)) != 0) p *= selA(i)(j)
          j += 1
        }
      }
      i += 1
    }
    p
  }

  /** Expected number of live partial matches for element set `mask` (strategy aware). */
  def pm(mask: Int): Double =
    if (mask == 0) 0.0
    else if (tabRef != null) tabRef(mask)
    else if (!nextLike) {
      var p = 1.0
      var i = 0
      while (i < n) { if ((mask & (1 << i)) != 0) p *= card(i); i += 1 }
      var sp = 1.0
      var a = 0
      while (a < n) {
        if ((mask & (1 << a)) != 0) {
          var b = a + 1
          while (b < n) { if ((mask & (1 << b)) != 0) sp *= selA(a)(b); b += 1 }
        }
        a += 1
      }
      p * sp
    } else {
      var mn = Double.MaxValue
      var i = 0
      while (i < n) { if ((mask & (1 << i)) != 0) mn = math.min(mn, rate(i)); i += 1 }
      W * mn * selProd(mask)
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
