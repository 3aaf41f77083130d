package repro.cep

import repro.core._
import scala.collection.mutable

/** Instance-based tree evaluation engine — ZStream (§2.3) modified, as in the
  * paper, to support arbitrary time windows: every arriving event creates a
  * leaf instance, which recursively combines with instances buffered at its
  * sibling subtree; instances reaching the root are full matches.
  *
  * Exactly-once: a pair of sibling instances is combined when the later of the
  * two is created, so every cross combination is produced exactly once.
  * Supports the same Kleene/negation/selection-strategy semantics as
  * [[NfaEngine]]; the two engines must emit identical match sets under
  * skip-till-any (verified by tests).
  */
final class TreeEngine(branch: PlannedBranch, config: EngineConfig = EngineConfig())
    extends EngineCore[TreeEngine.Inst](
      branch, config,
      bufferedElems = branch.positive.elems.map(_.kleene).toArray,
      elemSlot = Array.tabulate(branch.positive.size)(identity),
      nLists = 2 * branch.positive.size - 1, // one per tree node
    ) {
  require(branch.plan.isRight, "TreeEngine needs a tree-based plan")
  import TreeEngine.Inst

  // --- static tree wiring -------------------------------------------------
  // Node ids: 0..nNodes-1; node 0 is the root. For each node we precompute its
  // element mask, parent, sibling, and the cross predicates checked when its
  // two children combine.
  private val plan = branch.plan.toOption.get
  private case class NodeInfo(
      mask: Int,
      parent: Int,            // -1 for root
      sibling: Int,           // -1 for root
      left: Int, right: Int,  // -1 for leaves
      leafElem: Int,          // -1 for internal
      crossPreds: Array[Pred],// preds spanning left/right children
      negSpecs: Array[Int],   // negation specs triggered at this node
  )
  private val nodes: Array[NodeInfo] = {
    val buf = mutable.ArrayBuffer.empty[NodeInfo]
    def build(t: TreePlan, parent: Int): Int = {
      val id = buf.size
      buf += null
      t match {
        case LeafPlan(e) =>
          buf(id) = NodeInfo(1 << e, parent, -1, -1, -1, e, Array.empty, Array.empty)
        case NodePlan(l, r) =>
          val li = build(l, id); val ri = build(r, id)
          val cross = positive.preds.filter { p =>
            val bi = 1 << p.i; val bj = 1 << p.j
            ((l.mask & bi) != 0 && (r.mask & bj) != 0) || ((l.mask & bj) != 0 && (r.mask & bi) != 0)
          }.toArray
          buf(id) = NodeInfo(l.mask | r.mask, parent, -1, li, ri, -1, cross, Array.empty)
      }
      id
    }
    build(plan, -1)
    // fill sibling pointers
    val arr = buf.toArray
    arr.indices.foreach { id =>
      val ni = arr(id)
      if (ni.left >= 0) {
        arr(ni.left) = arr(ni.left).copy(sibling = ni.right)
        arr(ni.right) = arr(ni.right).copy(sibling = ni.left)
      }
    }
    // attach negation specs at the lowest node covering all dependencies
    branch.negs.zipWithIndex.foreach { case (spec, k) =>
      val depMask = spec.dependsOn.foldLeft(0)((m, d) => m | (1 << d))
      // lowest (deepest) node whose mask covers depMask; with depMask == 0 use
      // any leaf's parent — conservatively the root.
      val candidates = arr.indices.filter(id => (arr(id).mask & depMask) == depMask)
      val target =
        if (depMask == 0) 0
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
  override protected def onEvent(elem: Int, e: Event): Unit =
    if (positive.elems(elem).kleene) {
      // Subset semantics at the leaf: every subset of recent same-type events
      // containing `e` forms a leaf instance (§5.2). `e` is the buffer's last.
      val buf = buffers(elem)
      val recent = mutable.ArrayBuffer.empty[Event]
      var i = 0
      while (i < buf.length - 1) {
        val b = buf(i)
        if (!(consuming && consumed.contains(b.serial))) recent += b
        i += 1
      }
      val base = recent.takeRight(config.maxKleeneBuffer).toArray
      var m = 0
      while (m < (1 << base.length)) { makeLeafInst(elem, kleeneSubset(base, m, e)); m += 1 }
    } else makeLeafInst(elem, e)

  private def makeLeafInst(elem: Int, value: AnyRef): Unit = {
    val (vMin, vMax) = value match {
      case ev: Event       => (ev.ts, ev.ts)
      case a: Array[Event] => (a.head.ts, a.last.ts)
    }
    val bound = new Array[AnyRef](n)
    bound(elem) = value
    val inst = new Inst(leafOfElem(elem), bound, vMin, vMax)
    record(inst)
  }

  /** Store the instance (emitting at root) and combine it with its sibling's
    * buffered instances, recursively, dropping expired and dead siblings from
    * their list as the scan passes them.
    */
  private def record(inst: Inst): Unit = {
    countCreated()
    val info = nodes(inst.node)
    if (!negOk(info, inst)) return
    if (inst.node == rootId) { emit(inst); return }
    hold(inst.node, inst)
    val sibBuf = lists(info.sibling)
    val sz = sibBuf.size // children of this combine land at the parent
    var gone = 0 // released entries before the first kept one
    var kept = 0 // kept entries, moved up to follow the `gone` prefix
    var i = 0
    while (i < sz) {
      val s = sibBuf(i)
      if (!s.dead && s.minTs + W >= now) {
        if (gone + kept != i) sibBuf(gone + kept) = s
        kept += 1
        combine(inst, s, info.parent)
      } else {
        if (!s.dead) expire(s)
        if (kept == 0) gone += 1
      }
      i += 1
    }
    sibBuf.keep(gone, kept, sz)
  }

  private def combine(a: Inst, b: Inst, parent: Int): Unit = {
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
    val inst = new Inst(parent, bound, math.min(a.minTs, b.minTs), math.max(a.maxTs, b.maxTs))
    record(inst)
  }

  private def evalPair(lv: AnyRef, rv: AnyRef, op: PredOp): Boolean = (lv, rv) match {
    case (l: Event, r: Event)              => PredEval.eval(op, l, r)
    case (l: Event, r: Array[Event])       => r.forall(x => PredEval.eval(op, l, x))
    case (l: Array[Event], r: Event)       => l.forall(x => PredEval.eval(op, x, r))
    case (l: Array[Event], r: Array[Event]) => l.forall(x => r.forall(y => PredEval.eval(op, x, y)))
  }

  private def negOk(info: NodeInfo, inst: Inst): Boolean = {
    var s = 0
    while (s < info.negSpecs.length) {
      if (negBlocked(info.negSpecs(s), inst.bound)) return false
      s += 1
    }
    true
  }
}

object TreeEngine {

  /** An instance of tree node `node`: bound values per element (only positions
    * under the node's mask are set). `bound(e)` is an Event or Array[Event]
    * (Kleene).
    */
  private[cep] final class Inst(val node: Int, bound: Array[AnyRef], minTs: Double, maxTs: Double)
      extends PartialMatch(bound, minTs, maxTs)
}
