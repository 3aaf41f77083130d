package repro.core

/** Join-side cost functions of §3.2/§4 — `Cost_LDJ` and `Cost_BJ` — the
  * reference side of the Theorem 1/2 identity tests.
  */
object JoinCost {
  /** `Cost_LDJ(L) = C_1 + Σ C(P_{k-1}, R_{i_k})` for the left-deep order `order`. */
  def ldj(cards: Vector[Double], f: Vector[Vector[Double]], order: Vector[Int]): Double = {
    var cost = 0.0
    var inter = 1.0
    val placed = scala.collection.mutable.ArrayBuffer.empty[Int]
    order.foreach { k =>
      var s = f(k)(k)
      placed.foreach(p => s *= f(p)(k))
      inter = inter * cards(k) * s
      cost += inter
      placed += k
    }
    cost
  }

  /** `Cost_BJ(T) = Σ_N C(N)`: leaves cost `|R_i|`, internal nodes `|L|·|R|·f_{L,R}`. */
  def bushy(cards: Vector[Double], f: Vector[Vector[Double]], t: TreePlan): Double = {
    def size(node: TreePlan): Double = node match {
      case LeafPlan(e) => cards(e) * f(e)(e)
      case NodePlan(l, r) =>
        var s = size(l) * size(r)
        for (i <- l.leaves; j <- r.leaves) s *= f(i)(j)
        s
    }
    def cost(node: TreePlan): Double = node match {
      case LeafPlan(e)    => cards(e) * f(e)(e)
      case NodePlan(l, r) => cost(l) + cost(r) + size(node)
    }
    cost(t)
  }
}
