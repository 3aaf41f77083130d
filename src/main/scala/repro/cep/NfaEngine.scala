package repro.cep

import repro.core._
import scala.collection.mutable

/** Instance-based, out-of-order, order-based evaluation engine — the lazy-NFA
  * mechanism of §2.2 ([28, 29] in the paper), generalized with the §5/§6
  * constructs: Kleene closure (subset semantics), negation checks at the
  * earliest possible plan step, and the three event selection strategies.
  *
  * The engine processes events in timestamp order. Events are buffered per type;
  * a partial match at level `k` binds the first `k` plan positions. An arriving
  * event at plan position `p` extends every live level-`p` partial match, and
  * each newly created partial match immediately tries to bind already-buffered
  * events of subsequent plan positions ("lazy" out-of-order evaluation). Every
  * (partial match × event/subset) combination is considered exactly once: a
  * combination is created when the last-arriving of its constituents arrives.
  *
  * Invariants verified by the test suite: the emitted match set is identical for
  * all n! plans (§2.2), identical to [[TreeEngine]], to the Catalyst join
  * formulation, and to DuckDB.
  */
final class NfaEngine(branch: PlannedBranch, config: EngineConfig = EngineConfig())
    extends EngineCore[NfaEngine.Pm](
      branch, config,
      bufferedElems = Array.fill(branch.positive.size)(true),
      elemSlot = NfaEngine.planPos(branch),
      nLists = branch.positive.size, // index = level, 1..n-1 used
    ) {
  import NfaEngine.Pm

  private val order = branch.plan.swap.getOrElse(sys.error("unreachable")).order
  private val planPos: Array[Int] = NfaEngine.planPos(branch)
  private val elemAtPos: Array[Int] = order.toArray
  private val kleeneAtPos: Array[Boolean] = order.map(e => positive.elems(e).kleene).toArray

  /** Predicates to verify when binding plan position p, as parallel arrays:
    * the other side's plan position, the operator, and whether the bound
    * event is the left side. Pred(i, j, op) evaluates eval(op, e_i, e_j); when
    * planPos(i) is bound after planPos(j), the current event takes the left
    * side.
    */
  private val (predOther, predOp, predCurLeft) = {
    val acc = Array.fill(n)(mutable.ArrayBuffer.empty[(Int, PredOp, Boolean)])
    positive.preds.foreach { case Pred(i, j, op) =>
      val (pi, pj) = (planPos(i), planPos(j))
      if (pi > pj) acc(pi) += ((pj, op, true))
      else acc(pj) += ((pi, op, false))
    }
    (acc.map(_.map(_._1).toArray), acc.map(_.map(_._2).toArray), acc.map(_.map(_._3).toArray))
  }

  /** Negation specs grouped by trigger level (= max planPos of deps + 1). */
  private val negByLevel: Array[Array[Int]] = {
    val acc = Array.fill(n + 1)(mutable.ArrayBuffer.empty[Int])
    branch.negs.zipWithIndex.foreach { case (spec, k) =>
      val deps = spec.dependsOn
      val trigger = if (deps.isEmpty) 1 else deps.map(planPos).max + 1
      acc(trigger) += k
    }
    acc.map(_.toArray)
  }

  /** Extend every live level-`p` partial match with `e`, dropping expired and
    * dead ones from the level as the scan passes them.
    */
  override protected def onEvent(elem: Int, e: Event): Unit = {
    val p = planPos(elem)
    if (p == 0) bindAt(null, 0, e)
    else {
      val lvl = lists(p)
      val sz = lvl.size // children land only at higher levels
      var gone = 0 // released entries before the first kept one
      var kept = 0 // kept entries, moved up to follow the `gone` prefix
      var i = 0
      while (i < sz) {
        val pm = lvl(i)
        if (!pm.dead && pm.minTs + W >= now) {
          if (gone + kept != i) lvl(gone + kept) = pm
          kept += 1
          bindAt(pm, p, e)
        } else {
          if (!pm.dead) expire(pm)
          if (kept == 0) gone += 1
        }
        i += 1
      }
      lvl.keep(gone, kept, sz)
    }
  }

  /** Bind `e` (and, for Kleene positions, every subset of previously buffered
    * compatible events together with `e`) at plan position `p` of `pm`.
    */
  private def bindAt(pm: Pm, p: Int, e: Event): Unit =
    if (!kleeneAtPos(p)) {
      if (compatSingle(pm, p, e)) spawn(pm, p, e)
    } else if (compatSingle(pm, p, e)) spawnKleene(pm, p, e)

  /** Extend a freshly created partial match with already-buffered events of its
    * next plan position, recursively.
    */
  private def extendForward(pm: Pm, p: Int): Unit =
    if (!kleeneAtPos(p)) {
      val buf = buffers(elemAtPos(p))
      var i = 0
      while (i < buf.length) {
        val b = buf(i)
        if (compatSingle(pm, p, b)) spawn(pm, p, b)
        i += 1
      }
    } else spawnKleene(pm, p, null)

  /** Spawn every candidate Kleene binding at position p: non-empty subsets of
    * buffered compatible events, each including `mustInclude` when it is not
    * null (the newly-arrived event path; buffered-only subsets are produced by
    * the forward path). Buffered events all lie within [now-W, now], so members
    * are pairwise window-compatible by construction.
    */
  private def spawnKleene(pm: Pm, p: Int, mustInclude: Event): Unit = {
    val buf = buffers(elemAtPos(p))
    val maxSerial = if (mustInclude == null) Long.MaxValue else mustInclude.serial
    val compat = mutable.ArrayBuffer.empty[Event]
    var i = 0
    while (i < buf.length) {
      val b = buf(i)
      if (b.serial < maxSerial && compatSingle(pm, p, b)) compat += b
      i += 1
    }
    val base = compat.takeRight(config.maxKleeneBuffer).toArray
    var m = if (mustInclude == null) 1 else 0 // with `mustInclude`, {e} alone is a binding
    while (m < (1 << base.length)) { spawn(pm, p, kleeneSubset(base, m, mustInclude)); m += 1 }
  }

  /** Window, consumption and predicate compatibility of one candidate event
    * against the bound prefix.
    */
  private def compatSingle(pm: Pm, p: Int, ev: Event): Boolean = {
    if (consuming && consumed.contains(ev.serial)) return false
    if (pm != null && (ev.ts + W < pm.maxTs || ev.ts > pm.minTs + W)) return false
    if (pm == null) return true
    val other = predOther(p)
    var i = 0
    while (i < other.length) {
      val o = other(i)
      if (o < pm.level && !evalAgainst(pm.bound(o), predOp(p)(i), ev, predCurLeft(p)(i))) return false
      i += 1
    }
    true
  }

  /** Create the child partial match, run due negation checks, emit or store+extend. */
  private def spawn(pm: Pm, p: Int, value: AnyRef): Unit = {
    val (vMin, vMax) = value match {
      case e: Event       => (e.ts, e.ts)
      case a: Array[Event] => (a.head.ts, a.last.ts) // buffered in ts order
    }
    val bound = new Array[AnyRef](p + 1)
    if (pm != null) System.arraycopy(pm.bound, 0, bound, 0, p)
    bound(p) = value
    val child = new Pm(
      bound,
      p + 1,
      if (pm == null) vMin else math.min(pm.minTs, vMin),
      if (pm == null) vMax else math.max(pm.maxTs, vMax),
    )
    countCreated()
    if (!negOk(child)) return
    if (p + 1 == n) emit(child)
    else {
      hold(p + 1, child)
      extendForward(child, p + 1)
    }
  }

  /** §5.3: reject the partial match if a negation spec whose dependencies
    * became bound at this level finds a matching negated event.
    */
  private def negOk(child: Pm): Boolean = {
    val specs = negByLevel(child.level)
    var s = 0
    while (s < specs.length) {
      if (negBlocked(specs(s), child.bound)) return false
      s += 1
    }
    true
  }
}

object NfaEngine {

  /** A partial match binding plan positions 0..level-1. `bound` holds an Event,
    * or an Array[Event] for a Kleene position.
    */
  private[cep] final class Pm(bound: Array[AnyRef], val level: Int, minTs: Double, maxTs: Double)
      extends PartialMatch(bound, minTs, maxTs)

  /** Plan position of each positive element. */
  private def planPos(branch: PlannedBranch): Array[Int] = {
    require(branch.plan.isLeft, "NfaEngine needs an order-based plan")
    val order = branch.plan.swap.getOrElse(sys.error("unreachable")).order
    val a = Array.fill(branch.positive.size)(-1)
    order.zipWithIndex.foreach { case (e, p) => a(e) = p }
    a
  }
}
