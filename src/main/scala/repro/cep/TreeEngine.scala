package repro.cep

import repro.core._
import scala.collection.mutable

/** Instance-based evaluation engine for both plan families.
  *
  * A tree plan runs as ZStream (§2.3) modified, as in the paper, to support
  * arbitrary time windows: every arriving event creates a leaf instance, which
  * recursively combines with instances buffered at its sibling subtree;
  * instances reaching the root are full matches. A pair of sibling instances
  * is combined when the later of the two is created, so every cross
  * combination is produced exactly once.
  *
  * An order plan runs as its left-deep tree (Theorem 1) evaluated like the
  * lazy NFA of §2.2: only the first leaf creates instances. Every later leaf is
  * read in place from its event buffer: an arriving event binds to the live
  * instances of its sibling, and a new sibling instance binds the buffered
  * events. A candidate event is checked against the consumed set, and a Kleene
  * leaf filters compatible events before it enumerates their subsets (§5.2).
  *
  * Negation is checked at the lowest instance-creating node that covers the
  * elements it depends on (§5.3). Every plan of a pattern emits the same match
  * set under skip-till-any and contiguity, verified by the tests against a
  * brute-force oracle, the Catalyst join formulation and DuckDB.
  */
final class TreeEngine(branch: PlannedBranch, config: EngineConfig = EngineConfig())
    extends EngineCore(
      branch, config,
      // An order plan buffers every element; a tree plan only Kleene ones.
      bufferedElems = branch.positive.elems.map(e => e.kleene || branch.plan.isLeft).toArray,
      nLists = 2 * branch.positive.size - 1, // one per tree node
    ) {

  // --- static tree wiring -------------------------------------------------
  // Node ids: 0..nNodes-1 in pre-order; node 0 is the root. For each node we
  // precompute its element mask, parent, sibling, and the cross predicates
  // checked when its two children combine.
  private val plan = branch.plan.fold(TreePlan.leftDeep, identity)
  private case class NodeInfo(
      mask: Int,
      parent: Int,            // -1 for root
      sibling: Int,           // -1 for root
      leafElem: Int,          // -1 for internal
      kleene: Boolean,        // Kleene leaf
      inPlace: Boolean,       // leaf read from its event buffer
      crossPreds: Array[Pred],// preds spanning left/right children
      negSpecs: Array[Int],   // negation specs triggered at this node
  )
  private val nodes: Array[NodeInfo] = {
    val firstLeaf = plan.leaves.head
    val buf = mutable.ArrayBuffer.empty[NodeInfo]
    def build(t: TreePlan, parent: Int): Int = {
      val id = buf.size
      buf += null
      t match {
        case LeafPlan(e) =>
          val inPlace = branch.plan.isLeft && e != firstLeaf
          buf(id) = NodeInfo(1 << e, parent, -1, e, positive.elems(e).kleene, inPlace, Array.empty, Array.empty)
        case NodePlan(l, r) =>
          val li = build(l, id); val ri = build(r, id)
          buf(li) = buf(li).copy(sibling = ri)
          buf(ri) = buf(ri).copy(sibling = li)
          val cross = positive.preds.filter { p =>
            val bi = 1 << p.i; val bj = 1 << p.j
            ((l.mask & bi) != 0 && (r.mask & bj) != 0) || ((l.mask & bj) != 0 && (r.mask & bi) != 0)
          }.toArray
          buf(id) = NodeInfo(l.mask | r.mask, parent, -1, -1, false, false, cross, Array.empty)
      }
      id
    }
    build(plan, -1)
    val arr = buf.toArray
    // attach negation specs at the lowest instance-creating node covering all
    // dependencies; without dependencies, a tree plan uses the root and an
    // order plan its first leaf
    branch.negs.zipWithIndex.foreach { case (spec, k) =>
      val depMask = spec.dependsOn.foldLeft(0)((m, d) => m | (1 << d))
      val candidates = arr.indices.filter(id => !arr(id).inPlace && (arr(id).mask & depMask) == depMask)
      val target =
        if (depMask == 0 && branch.plan.isRight) 0
        else candidates.minBy(id => java.lang.Integer.bitCount(arr(id).mask))
      arr(target) = arr(target).copy(negSpecs = arr(target).negSpecs :+ k)
    }
    arr
  }
  private val rootId = 0
  private val leafOfElem: Array[Int] = {
    val a = Array.fill(n)(-1)
    nodes.indices.foreach(id => if (nodes(id).leafElem >= 0) a(nodes(id).leafElem) = id)
    a
  }

  override protected def onEvent(elem: Int, e: Event): Unit = {
    val leaf = nodes(leafOfElem(elem))
    if (leaf.inPlace) scan(leaf.sibling, null, e)
    // Subset semantics at a Kleene leaf: every subset of recent same-type
    // events containing `e` forms a leaf instance (§5.2).
    else if (leaf.kleene) spawnKleene(null, leaf, e)
    else spawn(null, leaf, e)
  }

  private def minTsOf(value: AnyRef): Double = value match {
    case ev: Event       => ev.ts
    case a: Array[Event] => a.head.ts // buffered in ts order
  }

  private def maxTsOf(value: AnyRef): Double = value match {
    case ev: Event       => ev.ts
    case a: Array[Event] => a.last.ts
  }

  /** Store the instance (emitting at root) and pair it with its sibling: the
    * sibling's buffered events when that is a leaf read in place, else the
    * sibling's instances.
    */
  private def record(inst: PartialMatch): Unit = {
    countCreated()
    val info = nodes(inst.node)
    if (!negOk(info, inst)) return
    if (inst.node == rootId) { emit(inst); return }
    hold(inst.node, inst)
    val sib = nodes(info.sibling)
    if (sib.inPlace) extend(inst, sib) else scan(info.sibling, inst, null)
  }

  /** Pair every live instance of node `l` with `inst` (combining them at the
    * parent) or, when `inst` is null, with event `e` of the in-place leaf that
    * is `l`'s sibling, dropping expired and dead instances from the list as
    * the scan passes them.
    */
  private def scan(l: Int, inst: PartialMatch, e: Event): Unit = {
    val info = nodes(l)
    val leaf = if (inst == null) nodes(info.sibling) else null
    val list = lists(l)
    val sz = list.size // children of this scan land at the parent
    var gone = 0 // released entries before the first kept one
    var kept = 0 // kept entries, moved up to follow the `gone` prefix
    var i = 0
    while (i < sz) {
      val s = list(i)
      if (!s.dead && s.minTs + W >= now) {
        if (gone + kept != i) list(gone + kept) = s
        kept += 1
        if (inst != null) combine(inst, s, info.parent) else bind(s, leaf, e)
      } else {
        if (!s.dead) expire(s)
        if (kept == 0) gone += 1
      }
      i += 1
    }
    list.keep(gone, kept, sz)
  }

  private def combine(a: PartialMatch, b: PartialMatch, parent: Int): Unit = {
    if (math.max(a.maxTs, b.maxTs) - math.min(a.minTs, b.minTs) > W) return
    if (consuming && (holdsConsumed(a.bound) || holdsConsumed(b.bound))) return
    val info = nodes(parent)
    val preds = info.crossPreds
    var i = 0
    while (i < preds.length) {
      val p = preds(i)
      val lv = if (a.bound(p.i) != null) a.bound(p.i) else b.bound(p.i)
      val rv = if (a.bound(p.j) != null) a.bound(p.j) else b.bound(p.j)
      if (!evalPair(lv, rv, p.op)) return
      i += 1
    }
    val bound = new Array[AnyRef](n)
    var e = 0
    while (e < n) {
      bound(e) = if (a.bound(e) != null) a.bound(e) else b.bound(e)
      e += 1
    }
    record(new PartialMatch(parent, bound, math.min(a.minTs, b.minTs), math.max(a.maxTs, b.maxTs)))
  }

  private def evalPair(lv: AnyRef, rv: AnyRef, op: PredOp): Boolean = rv match {
    case r: Event        => evalAgainst(lv, op, r, evIsLeft = false)
    case r: Array[Event] => r.forall(evalAgainst(lv, op, _, evIsLeft = false))
  }

  private def negOk(info: NodeInfo, inst: PartialMatch): Boolean = {
    var s = 0
    while (s < info.negSpecs.length) {
      if (negBlocked(info.negSpecs(s), inst.bound)) return false
      s += 1
    }
    true
  }

  // --- leaf bindings: in-place leaves, Kleene subsets, new instances ----------

  /** Bind `e`, an arriving event of in-place leaf `leaf`, to instance `pm`:
    * alone, or for a Kleene leaf with every subset of earlier compatible
    * buffered events.
    */
  private def bind(pm: PartialMatch, leaf: NodeInfo, e: Event): Unit =
    if (compatible(pm, leaf, e)) {
      if (leaf.kleene) spawnKleene(pm, leaf, e) else spawn(pm, leaf, e)
    }

  /** Bind the buffered events of in-place leaf `leaf` to a new instance `pm`,
    * until an emission kills `pm`.
    */
  private def extend(pm: PartialMatch, leaf: NodeInfo): Unit =
    if (leaf.kleene) spawnKleene(pm, leaf, null)
    else {
      val buf = buffers(leaf.leafElem)
      var i = 0
      while (i < buf.length && !pm.dead) {
        val b = buf(i)
        if (compatible(pm, leaf, b)) spawn(pm, leaf, b)
        i += 1
      }
    }

  /** [[spawn]] every candidate Kleene binding of `leaf`: the non-empty
    * subsets of [[kleeneBase]], each with `mustInclude` appended when it is
    * not null (the arriving event; subsets of buffered events alone are bound
    * when `pm` is created). A subset holding an event that an emission of
    * this loop consumed is skipped, and the loop stops when such an emission
    * kills `pm`.
    */
  private def spawnKleene(pm: PartialMatch, leaf: NodeInfo, mustInclude: Event): Unit = {
    val base = kleeneBase(pm, leaf, if (mustInclude == null) Long.MaxValue else mustInclude.serial)
    val drawn = emitted
    var m = if (mustInclude == null) 1 else 0 // with `mustInclude`, {e} alone is a binding
    while (m < (1 << base.length) && !(pm != null && pm.dead)) {
      val members = kleeneSubset(base, m, mustInclude)
      if (!consumedSince(drawn, members)) spawn(pm, leaf, members)
      m += 1
    }
  }

  /** The Kleene candidates of `leaf`: the last `maxKleeneBuffer` of its
    * buffered events with a serial below `below` that are compatible with
    * `pm` (with no `pm`: not consumed). Buffered events all lie within
    * [now-W, now], so members are pairwise window-compatible by construction.
    */
  private def kleeneBase(pm: PartialMatch, leaf: NodeInfo, below: Long): Array[Event] = {
    val buf = buffers(leaf.leafElem)
    val compat = mutable.ArrayBuffer.empty[Event]
    var i = 0
    while (i < buf.length) {
      val b = buf(i)
      if (b.serial < below && compatible(pm, leaf, b)) compat += b
      i += 1
    }
    compat.takeRight(config.maxKleeneBuffer).toArray
  }

  /** Window, consumption and predicate compatibility of event `ev` of leaf
    * `leaf` with instance `pm` of its sibling; with no `pm`, consumption only.
    */
  private def compatible(pm: PartialMatch, leaf: NodeInfo, ev: Event): Boolean = {
    if (consuming && consumed.contains(ev.serial)) return false
    if (pm == null) return true
    if (ev.ts + W < pm.maxTs || ev.ts > pm.minTs + W) return false
    val elem = leaf.leafElem
    val preds = nodes(leaf.parent).crossPreds
    var i = 0
    while (i < preds.length) {
      val p = preds(i)
      val evLeft = p.i == elem
      if (!evalAgainst(pm.bound(if (evLeft) p.j else p.i), p.op, ev, evLeft)) return false
      i += 1
    }
    true
  }

  /** Record the instance binding `value` at `leaf`: the parent instance of
    * `pm`, or with no `pm` a leaf instance.
    */
  private def spawn(pm: PartialMatch, leaf: NodeInfo, value: AnyRef): Unit = {
    val bound = if (pm == null) new Array[AnyRef](n) else pm.bound.clone()
    bound(leaf.leafElem) = value
    val lo = minTsOf(value)
    val hi = maxTsOf(value)
    record(
      if (pm == null) new PartialMatch(leafOfElem(leaf.leafElem), bound, lo, hi)
      else new PartialMatch(leaf.parent, bound, math.min(pm.minTs, lo), math.max(pm.maxTs, hi)))
  }
}
