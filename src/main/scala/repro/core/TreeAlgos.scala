package repro.core

/** Tree-based plan generation algorithms of §7.1. */
object TreeAlgos {

  /** ZStream's native algorithm [Mei & Madden '09]: optimal tree for a *fixed*
    * left-to-right leaf order, via interval dynamic programming (the
    * matrix-chain-multiplication recurrence). Cannot reorder leaves — the §2.3
    * limitation the paper illustrates with Fig 3. O(n^3).
    */
  def zstream(cm: CostModel, leafOrder: Vector[Int]): TreePlan = {
    val n = leafOrder.size
    // best(i)(j): cheapest subtree covering leafOrder(i..j) inclusive.
    val bestCost = Array.fill(n, n)(Double.PositiveInfinity)
    val bestCut = Array.fill(n, n)(-1)
    val masks = Array.ofDim[Int](n, n)
    for (i <- 0 until n) {
      masks(i)(i) = 1 << leafOrder(i)
      bestCost(i)(i) = cm.pm(masks(i)(i))
    }
    for (len <- 2 to n; i <- 0 to n - len) {
      val j = i + len - 1
      masks(i)(j) = masks(i)(j - 1) | (1 << leafOrder(j))
      for (cut <- i until j) {
        val c = bestCost(i)(cut) + bestCost(cut + 1)(j) +
          cm.treeCombine(masks(i)(cut), masks(cut + 1)(j))
        if (c < bestCost(i)(j)) { bestCost(i)(j) = c; bestCut(i)(j) = cut }
      }
    }
    def build(i: Int, j: Int): TreePlan =
      if (i == j) LeafPlan(leafOrder(i))
      else { val cut = bestCut(i)(j); NodePlan(build(i, cut), build(cut + 1, j)) }
    build(0, n - 1)
  }

  /** ZSTREAM-ORD: run GREEDY to pick a good leaf order, then ZStream's interval
    * DP on that order (§7.1).
    */
  def zstreamOrd(cm: CostModel): TreePlan = zstream(cm, OrderAlgos.greedy(cm).order)

  /** DP-B [Selinger '79 generalized]: exact bushy-tree DP over element subsets,
    * cross products allowed. `bestCost(S) = PM(S) + min over splits`, because the
    * node PM depends only on the covered set. O(3^n).
    */
  def dpBushy(cm: CostModel): TreePlan = {
    val n = cm.n
    cm.ensureTable()
    val full = (1 << n) - 1
    val best = Array.fill(1 << n)(Double.PositiveInfinity)
    val split = Array.fill(1 << n)(0)
    var e = 0
    while (e < n) { best(1 << e) = cm.pm(1 << e); e += 1 }
    var mask = 1
    while (mask <= full) {
      if (java.lang.Integer.bitCount(mask) >= 2) {
        val low = mask & -mask // force the lowest bit into the left side: each
        // unordered split is tried once (cost models are symmetric in children)
        var sub = (mask - 1) & mask
        while (sub != 0) {
          if ((sub & low) != 0 && sub != mask) {
            val other = mask ^ sub
            val c = best(sub) + best(other) + cm.treeCombine(sub, other)
            if (c < best(mask)) { best(mask) = c; split(mask) = sub }
          }
          sub = (sub - 1) & mask
        }
      }
      mask += 1
    }
    def build(m: Int): TreePlan =
      if (java.lang.Integer.bitCount(m) == 1) LeafPlan(java.lang.Integer.numberOfTrailingZeros(m))
      else NodePlan(build(split(m)), build(m ^ split(m)))
    build(full)
  }
}
