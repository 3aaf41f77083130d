package repro.core

import scala.util.Random

/** Order-based plan generation algorithms of §7.1.
  *
  * TRIVIAL and EFREQ are the CEP-native baselines (SASE/Cayuga and
  * PB-CED/Lazy-NFA respectively); GREEDY, II-RANDOM, II-GREEDY and DP-LD are the
  * JQPG methods adapted via the Theorem 1 reduction. All operate on a
  * [[CostModel]] so the same code serves the throughput, hybrid-latency and
  * selection-strategy objectives.
  */
object OrderAlgos {

  /** Evaluation order = the order events appear in the pattern (SASE, Cayuga). */
  def trivial(n: Int): OrderPlan = OrderPlan((0 until n).toVector)

  /** Ascending arrival-frequency order (PB-CED, Lazy NFA). Ties broken by index
    * for determinism. Uses effective rates, i.e. after the KL rewrite of §5.2.
    */
  def efreq(stats: Stats): OrderPlan =
    OrderPlan(stats.rates.zipWithIndex.sortBy { case (r, i) => (r, i) }.map(_._2))

  /** Greedy heuristic [Swami '89]: repeatedly append the element minimizing the
    * incremental cost (the size of the next intermediate result).
    */
  def greedy(cm: CostModel): OrderPlan = {
    val n = cm.n
    // Small patterns: share the pm table with other planners on this model.
    // Large ones: greedy's O(n^2) direct evaluations are cheaper than a table.
    if (n <= 16) cm.ensureTable()
    val remaining = scala.collection.mutable.BitSet(0 until n: _*)
    var mask = 0
    val order = Vector.newBuilder[Int]
    while (remaining.nonEmpty) {
      val best = remaining.minBy(e => cm.orderStep(mask | (1 << e), e))
      remaining -= best
      mask |= 1 << best
      order += best
    }
    OrderPlan(order.result())
  }

  /** One iterative-improvement descent [Swami '89]: explore `swap` (two positions
    * exchanged) and `cycle` (three positions rotated) moves, take the best
    * improving neighbour (the first one found at the lowest cost), stop at a
    * local minimum. Each move is scored in place on `cur` and undone.
    */
  private def descend(cm: CostModel, start: Vector[Int], maxIters: Int = 1000): OrderPlan = {
    val cur = start.toArray
    val n = cur.length
    var curCost = cm.orderCostOf(cur)
    var improved = true
    var iters = 0
    while (improved && iters < maxIters) {
      improved = false
      iters += 1
      var bestCost = curCost
      var bi = -1; var bj = -1; var bk = -1 // best move; bk < 0 for a swap
      var i = 0
      // swap moves
      while (i < n) {
        var j = i + 1
        while (j < n) {
          val vi = cur(i); cur(i) = cur(j); cur(j) = vi
          val c = cm.orderCostOf(cur)
          cur(j) = cur(i); cur(i) = vi
          if (c < bestCost) { bestCost = c; bi = i; bj = j; bk = -1 }
          j += 1
        }
        i += 1
      }
      // cycle moves: positions (i, j, k) take the values at (k, i, j)
      i = 0
      while (i < n) {
        var j = i + 1
        while (j < n) {
          var k = j + 1
          while (k < n) {
            val vi = cur(i); val vj = cur(j)
            cur(i) = cur(k); cur(j) = vi; cur(k) = vj
            val c = cm.orderCostOf(cur)
            cur(k) = cur(i); cur(i) = vi; cur(j) = vj
            if (c < bestCost) { bestCost = c; bi = i; bj = j; bk = k }
            k += 1
          }
          j += 1
        }
        i += 1
      }
      if (bi >= 0) {
        val vi = cur(bi)
        if (bk < 0) { cur(bi) = cur(bj); cur(bj) = vi }
        else { val vj = cur(bj); cur(bi) = cur(bk); cur(bj) = vi; cur(bk) = vj }
        curCost = bestCost
        improved = true
      }
    }
    OrderPlan(cur.toVector)
  }

  /** II-RANDOM: iterative improvement from random starts, best local minimum kept. */
  def iiRandom(cm: CostModel, seed: Long = 42, restarts: Int = 5): OrderPlan = {
    cm.ensureTable()
    val rnd = new Random(seed)
    val cands = (0 until restarts).map(_ => descend(cm, rnd.shuffle((0 until cm.n).toVector)))
    cands.minBy(cm.orderCost)
  }

  /** II-GREEDY: iterative improvement from the greedy solution. */
  def iiGreedy(cm: CostModel): OrderPlan = {
    cm.ensureTable()
    descend(cm, greedy(cm).order)
  }

  /** DP-LD [Selinger '79]: exact dynamic programming over element subsets.
    * `Cost_ord` depends only on the chain of prefix *sets*, so the optimal order
    * decomposes over subsets; cross products are allowed (§4.3). O(2^n·n).
    */
  def dpLeftDeep(cm: CostModel): OrderPlan = {
    val n = cm.n
    cm.ensureTable()
    val full = (1 << n) - 1
    val best = Array.fill(1 << n)(Double.PositiveInfinity)
    val choice = Array.fill(1 << n)(-1)
    best(0) = 0.0
    var mask = 1
    while (mask <= full) {
      var e = 0
      while (e < n) {
        val bit = 1 << e
        if ((mask & bit) != 0) {
          val prev = best(mask ^ bit)
          if (prev < Double.PositiveInfinity) {
            val c = prev + cm.orderStep(mask, e)
            if (c < best(mask)) { best(mask) = c; choice(mask) = e }
          }
        }
        e += 1
      }
      mask += 1
    }
    // Reconstruct the order back-to-front.
    val rev = Vector.newBuilder[Int]
    var m = full
    while (m != 0) { val e = choice(m); rev += e; m ^= 1 << e }
    OrderPlan(rev.result().reverse)
  }
}
