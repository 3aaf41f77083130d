package repro.core

/** Exhaustive plan enumeration and search: test oracles for the planners and
  * the engines (tiny n only).
  */
object PlanOracles {

  /** All bushy trees over the given leaf set. */
  def enumerate(elems: Vector[Int]): Vector[TreePlan] =
    if (elems.size == 1) Vector(LeafPlan(elems.head))
    else {
      // Split into every (non-empty, non-full) subset containing elems.head to
      // avoid generating each unordered {L,R} split twice with mirrored children;
      // both child orders are still produced for the *other* levels via recursion,
      // but cost models are symmetric in (l, r) so this is exhaustive for costs.
      val head = elems.head
      val rest = elems.tail
      (0 until (1 << rest.size)).toVector.flatMap { m =>
        val left  = head +: rest.zipWithIndex.collect { case (e, i) if (m & (1 << i)) != 0 => e }
        val right = rest.zipWithIndex.collect { case (e, i) if (m & (1 << i)) == 0 => e }
        if (right.isEmpty) Vector.empty
        else for (l <- enumerate(left); r <- enumerate(right)) yield NodePlan(l, r): TreePlan
      }
    }

  /** All trees with a fixed left-to-right leaf order (the ZStream search space, §2.3). */
  def enumerateFixedOrder(leaves: Vector[Int]): Vector[TreePlan] =
    if (leaves.size == 1) Vector(LeafPlan(leaves.head))
    else
      (1 until leaves.size).toVector.flatMap { cut =>
        for {
          l <- enumerateFixedOrder(leaves.take(cut))
          r <- enumerateFixedOrder(leaves.drop(cut))
        } yield NodePlan(l, r): TreePlan
      }

  /** Exhaustive search over all n! orders. */
  def bruteForceOrder(cm: CostModel): OrderPlan =
    OrderPlan((0 until cm.n).toVector.permutations.minBy(p => cm.orderCost(OrderPlan(p))))

  /** Exhaustive search over all bushy trees. */
  def bruteForceTree(cm: CostModel): TreePlan =
    enumerate((0 until cm.n).toVector).minBy(cm.treeCost)

  /** Exhaustive search over all trees with a fixed leaf order (oracle for ZStream). */
  def bruteForceFixedOrder(cm: CostModel, leafOrder: Vector[Int]): TreePlan =
    enumerateFixedOrder(leafOrder).minBy(cm.treeCost)
}
