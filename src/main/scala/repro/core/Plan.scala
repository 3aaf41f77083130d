package repro.core

/** An order-based evaluation plan (§3.1): a permutation of pattern element
  * positions. `order(0)` is processed first (the lazy-NFA "initial" type).
  */
final case class OrderPlan(order: Vector[Int]) extends Serializable {
  require(order.sorted == order.indices.toVector, s"not a permutation: $order")
  def n: Int = order.size
  /** planPos(elem) = position of pattern element `elem` in the plan. */
  lazy val planPos: Vector[Int] = {
    val a = Array.fill(n)(-1)
    order.zipWithIndex.foreach { case (e, p) => a(e) = p }
    a.toVector
  }
}

/** A tree-based evaluation plan (§3.1): a binary tree whose leaves are pattern
  * element positions. Mirrors bushy join trees (Fig 2b ≈ Fig 1c).
  */
sealed trait TreePlan extends Serializable {
  /** Leaves in left-to-right order. */
  def leaves: Vector[Int] = this match {
    case LeafPlan(e)    => Vector(e)
    case NodePlan(l, r) => l.leaves ++ r.leaves
  }
  /** Bitmask of element positions covered by this subtree, computed once per
    * node at construction.
    */
  def mask: Int
  /** All nodes (pre-order). */
  def nodes: Vector[TreePlan] = this match {
    case l: LeafPlan    => Vector(l)
    case n @ NodePlan(l, r) => n +: (l.nodes ++ r.nodes)
  }
}
final case class LeafPlan(elem: Int) extends TreePlan {
  val mask: Int = 1 << elem
}
final case class NodePlan(l: TreePlan, r: TreePlan) extends TreePlan {
  require((l.mask & r.mask) == 0, "subtrees must cover disjoint elements")
  val mask: Int = l.mask | r.mask
}

object TreePlan {
  /** The left-deep tree equivalent of an order plan (§3.2: one left-deep tree per order). */
  def leftDeep(o: OrderPlan): TreePlan =
    o.order.tail.foldLeft(LeafPlan(o.order.head): TreePlan)((acc, e) => NodePlan(acc, LeafPlan(e)))
}
