package repro.cep

import repro.core._
import scala.collection.mutable
import scala.util.control.ControlThrowable

/** Instance-based evaluation engine for both plan families.
  *
  * A plan runs as a tree: a tree plan as ZStream (§2.3) modified, as in the
  * paper, to support arbitrary time windows, and an order plan as its
  * left-deep tree (Theorem 1). One rule, read off the tree's shape, sets each
  * leaf's kind. A leaf creates an instance per arriving event when it is the
  * left leaf of a leaf–leaf pair, or the whole plan. Every other leaf is read
  * in place from its event buffer, as the lazy NFA of §2.2 reads its later
  * states: an arriving event binds to the live instances of its sibling, and a
  * new sibling instance binds the buffered events. A buffer is an
  * [[EventRing]] in (ts, serial) order, so, as in ZStream, the new instance
  * reads only the timestamps that `TsLess` and `SerialSucc` predicates allow:
  * from the latest event of a sibling-subtree element ordered before the
  * leaf's element to the earliest of one ordered after it, both ends included
  * ([[compatible]] decides ties). A negation check reads its buffer the same
  * way. An arriving event is the latest, so at a leaf whose element must
  * precede an element of its sibling subtree it binds nothing: its scan only
  * releases expired and dead instances. Instances combine
  * recursively with the instances of their sibling subtree, when the later of
  * the two is created, so every cross combination is produced exactly once;
  * instances reaching the root are full matches. A candidate event is checked
  * against the consumed set, and a Kleene leaf filters compatible events before
  * it enumerates their subsets (§5.2).
  *
  * Per event: the input-order guard, the event counter and stream time, the
  * 1024-event sweep check and a type dispatch through an array indexed by
  * `typeId`. An event of a type the pattern does not use stops there. An event
  * of a pattern type first evicts the buffered events that left the window
  * (an [[ArrivalRing]] of their timestamps, buffer slots and serials drives
  * this, and it also prunes the consumed set), is buffered and, for a
  * positive element, processed. Eviction may wait for a pattern event: the
  * cutoff only grows, and the buffers are read only after such an event. The
  * wall clock is read before processing only at an element that can complete
  * a match ([[readsClock]]), which is where every match's latency starts.
  *
  * Partial matches live in `lists`, one per plan node. `liveCount` is the
  * number of non-dead partial matches held there: a scan drops expired and
  * dead entries as it passes them ([[expire]], [[PmList.keep]]), and the sweep
  * does so for lists no scan reached. A match emitted in the middle of a scan
  * runs [[killConsumed]] over the list being compacted, so an entry dropped as
  * expired is also marked dead and never counted twice.
  *
  * Negation is checked at the lowest instance-creating node that covers the
  * elements it depends on (§5.3). Every plan of a pattern emits the same match
  * set under skip-till-any and contiguity, verified by the tests against a
  * brute-force oracle, the Catalyst join formulation and DuckDB.
  */
final class TreeEngine(branch: PlannedBranch, config: EngineConfig = EngineConfig()) extends CepEngine {

  private val positive: SimplePattern = branch.positive
  private val n: Int = positive.size
  private val W: Double = positive.window
  private val consuming: Boolean = branch.model.strategy != AnyMatch

  /** The `TsLess` and `SerialSucc` predicates: each orders the event of its
    * `i` element at or before the event of its `j` element (serials increase
    * with timestamps).
    */
  private val orderPreds: Vector[Pred] = positive.preds.filter(p => p.op == TsLess || p.op == SerialSucc)

  // --- static tree wiring -------------------------------------------------
  // Node ids: 0..nNodes-1 in pre-order; node 0 is the root. For each node we
  // precompute its element mask, parent, sibling, and the cross predicates
  // checked when its two children combine.
  private case class NodeInfo(
      mask: Int,
      parent: Int,            // -1 for root
      sibling: Int,           // -1 for root
      leafElem: Int,          // -1 for internal
      kleene: Boolean,        // Kleene leaf
      inPlace: Boolean,       // leaf read from its event buffer
      before: Array[Int],     // leaf: sibling-subtree elements ordered before it
      after: Array[Int],      // leaf: sibling-subtree elements ordered after it
      crossPreds: Array[Pred],// preds spanning left/right children
      negSpecs: Array[Int],   // negation specs triggered at this node
  )
  private val nodes: Array[NodeInfo] = {
    val buf = mutable.ArrayBuffer.empty[NodeInfo]
    // a leaf's elements of `sibMask` that an ordering predicate puts before or after it
    def ordered(leaf: NodeInfo, sibMask: Int): NodeInfo = {
      val e = leaf.leafElem
      def in(x: Int) = (sibMask & (1 << x)) != 0
      leaf.copy(
        before = orderPreds.collect { case Pred(i, `e`, _) if in(i) => i }.distinct.toArray,
        after = orderPreds.collect { case Pred(`e`, j, _) if in(j) => j }.distinct.toArray)
    }
    def build(t: TreePlan, parent: Int, inPlace: Boolean): Int = {
      val id = buf.size
      buf += null
      t match {
        case LeafPlan(e) =>
          buf(id) = NodeInfo(1 << e, parent, -1, e, positive.elems(e).kleene, inPlace,
            Array.empty, Array.empty, Array.empty, Array.empty)
        case NodePlan(l, r) =>
          // only the left leaf of a leaf–leaf pair creates instances
          val li = build(l, id, inPlace = !r.isInstanceOf[LeafPlan])
          val ri = build(r, id, inPlace = true)
          buf(li) = ordered(buf(li).copy(sibling = ri), r.mask)
          buf(ri) = ordered(buf(ri).copy(sibling = li), l.mask)
          val cross = positive.preds.filter { p =>
            val bi = 1 << p.i; val bj = 1 << p.j
            ((l.mask & bi) != 0 && (r.mask & bj) != 0) || ((l.mask & bj) != 0 && (r.mask & bi) != 0)
          }.toArray
          buf(id) = NodeInfo(l.mask | r.mask, parent, -1, -1, false, false,
            Array.empty, Array.empty, cross, Array.empty)
      }
      id
    }
    build(branch.tree, -1, inPlace = false)
    val arr = buf.toArray
    // attach negation specs at the lowest instance-creating node covering all
    // dependencies (the first such in pre-order on a tie)
    branch.negs.zipWithIndex.foreach { case (spec, k) =>
      val depMask = spec.dependsOn.foldLeft(0)((m, d) => m | (1 << d))
      val target = arr.indices.filter(id => !arr(id).inPlace && (arr(id).mask & depMask) == depMask)
        .minBy(id => java.lang.Integer.bitCount(arr(id).mask))
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

  /** Per typeId: the positive element (0..n-1), n + negation spec, or -1. */
  private val slotOfType: Array[Int] = {
    val types = positive.elems.map(_.typeId) ++ branch.negs.map(_.elem.typeId)
    require(types.forall(_ >= 0), s"event type ids must be non-negative: $types")
    val a = Array.fill(if (types.isEmpty) 0 else types.max + 1)(-1)
    types.zipWithIndex.foreach { case (t, s) => a(t) = s }
    a
  }
  /** Per positive element: whether an arrival there can complete a match, so
    * that it reads the clock for `latencyNanosSum`. An element that a `TsLess`
    * or `SerialSucc` predicate orders before another cannot: the other
    * element's event arrives later. Of a sequence only its temporally last
    * element is left; every element of a conjunction reads the clock.
    */
  private val readsClock: Array[Boolean] = {
    val a = Array.fill(n)(true)
    orderPreds.foreach(p => a(p.i) = false)
    a
  }
  private val negDeps: Array[Array[Int]] = branch.negs.map(_.dependsOn.toArray).toArray
  private val negPreds: Array[Array[NegPred]] = branch.negs.map(_.preds.toArray).toArray
  /** Per negation spec: the positive elements an ordering predicate puts
    * before (`negBefore`) or after (`negAfter`) the negated event.
    */
  private def negOrdered(negOnLeft: Boolean): Array[Array[Int]] =
    branch.negs.map(_.preds.collect { case NegPred(pos, TsLess | SerialSucc, `negOnLeft`) => pos }
      .distinct.toArray).toArray
  private val negBefore: Array[Array[Int]] = negOrdered(negOnLeft = false)
  private val negAfter: Array[Array[Int]] = negOrdered(negOnLeft = true)

  // --- run state ------------------------------------------------------------
  /** The in-window events of each slot of [[slotOfType]]. */
  private val buffers = Array.fill(n + branch.negs.size)(new EventRing)
  private val arrivals = new ArrivalRing
  private val lists: Array[PmList] = Array.fill(nodes.length)(new PmList)
  private val consumed = new SerialSet
  private var now: Double = Double.NegativeInfinity
  private var prev: Event = _
  private var liveCount = 0L
  private var nEvents = 0L
  private var nMatches = 0L
  private var pmCreated = 0L
  private var peakLive = 0L
  private var peakBuffered = 0L
  private var latSum = 0L
  private var kleeneTruncated = 0L
  private var tEventStart = 0L
  private var out: mutable.ArrayBuffer[CepMatch] = _
  private var wasCapped = false

  private object Abort extends ControlThrowable

  /** Process `events` (sorted by (ts, serial); an event that breaks the order
    * throws IllegalArgumentException) and report matches and counters.
    */
  override def run(events: IndexedSeq[Event]): RunResult = {
    out = mutable.ArrayBuffer.empty[CepMatch]
    val t0 = System.nanoTime()
    try {
      var i = 0
      while (i < events.length) { process(events(i)); i += 1 }
    } catch { case Abort => wasCapped = true }
    val wall = System.nanoTime() - t0
    RunResult(
      RunStats(nEvents, nMatches, pmCreated, peakLive, peakBuffered, wall, latSum, kleeneTruncated),
      out.toVector,
      wasCapped,
    )
  }

  private def process(e: Event): Unit = {
    if (e.ts < now || (prev != null && e.ts == now && e.serial < prev.serial)) outOfOrder(e)
    prev = e
    nEvents += 1
    now = e.ts
    if ((nEvents & 1023) == 0) sweep()
    val t = e.typeId
    val slot = if (t >= 0 && t < slotOfType.length) slotOfType(t) else -1
    if (slot >= 0) {
      evict()
      buffers(slot).append(e)
      arrivals.append(e.ts, slot, e.serial)
      if (arrivals.size > peakBuffered) peakBuffered = arrivals.size
      if (slot < n) {
        if (readsClock(slot)) tEventStart = System.nanoTime()
        onEvent(slot, e)
      }
    }
  }

  private def outOfOrder(e: Event): Nothing = {
    def show(x: Event) = s"(type ${x.typeId}, ts ${x.ts}, serial ${x.serial})"
    throw new IllegalArgumentException(
      s"events must be sorted by (ts, serial): event ${show(e)} follows ${show(prev)}")
  }

  /** Drop buffered events older than the window, and their consumed serials.
    * Every buffer is a subsequence of the arrivals, so the head of the
    * arrivals is also the head of its own buffer.
    */
  private def evict(): Unit = {
    val cutoff = now - W
    while (arrivals.size > 0 && arrivals.headTs < cutoff) {
      val slot = arrivals.headSlot
      buffers(slot).removeHead()
      if (consuming && slot < n) consumed -= arrivals.headSerial
      arrivals.removeHead()
    }
  }

  /** Process an arriving event of positive element `elem`. */
  private def onEvent(elem: Int, e: Event): Unit = {
    val leaf = nodes(leafOfElem(elem))
    // An event that must precede an element of the sibling binds nothing: it
    // is the latest event. The scan only releases expired and dead instances.
    if (leaf.inPlace) scan(leaf.sibling, null, if (leaf.after.isEmpty) e else null)
    // Subset semantics at a Kleene leaf: every subset of recent same-type
    // events containing `e` forms a leaf instance (§5.2).
    else if (leaf.kleene) spawnKleene(null, leaf, e)
    else spawn(null, leaf, e)
  }

  // --- partial matches -------------------------------------------------------

  /** Store a live partial match in list `l`. */
  private def hold(l: Int, pm: PartialMatch): Unit = {
    lists(l) += pm
    liveCount += 1
    if (liveCount > peakLive) peakLive = liveCount
  }

  /** Release a non-dead partial match that a scan found expired. */
  private def expire(pm: PartialMatch): Unit = { pm.dead = true; liveCount -= 1 }

  /** Every `1 << 10` events: release expired and dead entries of all lists
    * (the root's list stays empty: `record` emits root instances).
    */
  private def sweep(): Unit = {
    var l = 1
    while (l < lists.length) { scan(l, null, null); l += 1 }
  }

  private def minTsOf(value: AnyRef): Double = value match {
    case ev: Event       => ev.ts
    case a: Array[Event] => a.head.ts // buffered in ts order
  }

  private def maxTsOf(value: AnyRef): Double = value match {
    case ev: Event       => ev.ts
    case a: Array[Event] => a.last.ts
  }

  /** Count and store the instance (emitting at root; aborting the run past
    * `pmCap`) and pair it with its sibling: the sibling's buffered events when
    * that is a leaf read in place, else the sibling's instances.
    */
  private def record(inst: PartialMatch): Unit = {
    pmCreated += 1
    if (pmCreated > config.pmCap) throw Abort
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
    * the scan passes them. When both are null the scan only drops.
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
        if (inst != null) combine(inst, s, info.parent) else if (e != null) bind(s, leaf, e)
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

  // --- consumption and emission ---------------------------------------------

  private def holdsConsumed(bound: Array[AnyRef]): Boolean = {
    var s = 0
    while (s < bound.length) {
      bound(s) match {
        case null            => ()
        case e: Event        => if (consumed.contains(e.serial)) return true
        case a: Array[Event] => if (a.exists(x => consumed.contains(x.serial))) return true
      }
      s += 1
    }
    false
  }

  /** Whether an emission after the `since`-th consumed a member of `a`. */
  private def consumedSince(since: Long, a: Array[Event]): Boolean =
    consuming && nMatches != since && a.exists(x => consumed.contains(x.serial))

  /** After a consumption, held partial matches holding consumed events die. */
  private def killConsumed(): Unit = {
    var l = 0
    while (l < lists.length) {
      val list = lists(l)
      var i = 0
      while (i < list.size) {
        val pm = list(i)
        if (!pm.dead && holdsConsumed(pm.bound)) { pm.dead = true; liveCount -= 1 }
        i += 1
      }
      l += 1
    }
  }

  /** Report a full match; under a consuming strategy, skip it when an earlier
    * emission of this arrival consumed one of its events, else consume them.
    */
  private def emit(m: PartialMatch): Unit = {
    if (consuming && holdsConsumed(m.bound)) return
    nMatches += 1
    latSum += System.nanoTime() - tEventStart
    if (config.collectMatches) {
      val byElem = Vector.tabulate(n) { elem =>
        m.bound(elem) match {
          case e: Event        => Vector(e.serial)
          case a: Array[Event] => a.map(_.serial).sorted.toVector
        }
      }
      out += CepMatch(byElem, m.minTs)
    }
    if (consuming) {
      var s = 0
      while (s < m.bound.length) {
        m.bound(s) match {
          case null            => ()
          case e: Event        => consumed += e.serial
          case a: Array[Event] => a.foreach(x => consumed += x.serial)
        }
        s += 1
      }
      killConsumed()
    }
  }

  // --- predicates and negation -----------------------------------------------

  /** `op` between a bound value (Event, or every member of a Kleene binding)
    * and `ev`, with `ev` on the left side when `evIsLeft`.
    */
  private def evalAgainst(boundVal: AnyRef, op: PredOp, ev: Event, evIsLeft: Boolean): Boolean =
    boundVal match {
      case b: Event =>
        if (evIsLeft) PredEval.eval(op, ev, b) else PredEval.eval(op, b, ev)
      case arr: Array[Event] =>
        var i = 0
        while (i < arr.length) {
          val ok = if (evIsLeft) PredEval.eval(op, ev, arr(i)) else PredEval.eval(op, arr(i), ev)
          if (!ok) return false
          i += 1
        }
        true
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

  /** §5.3: does a buffered event of negation spec `k` block `bound`? It must
    * lie within W of every bound dependency and satisfy its predicates against
    * them. Negated events are never consumed: every element has its own type.
    * Only the timestamp range its ordering predicates allow is read.
    */
  private def negBlocked(k: Int, bound: Array[AnyRef]): Boolean = {
    val buf = buffers(n + k)
    val end = buf.firstAfter(tsCeil(bound, negAfter(k)))
    var i = buf.firstAtOrAfter(tsFloor(bound, negBefore(k)))
    while (i < end) {
      if (negMatches(k, bound, buf(i))) return true
      i += 1
    }
    false
  }

  private def negMatches(k: Int, bound: Array[AnyRef], b: Event): Boolean = {
    val deps = negDeps(k)
    var d = 0
    while (d < deps.length) {
      val ok = bound(deps(d)) match {
        case null            => false
        case e: Event        => math.abs(e.ts - b.ts) <= W
        case a: Array[Event] => a.forall(e => math.abs(e.ts - b.ts) <= W)
      }
      if (!ok) return false
      d += 1
    }
    val preds = negPreds(k)
    var i = 0
    while (i < preds.length) {
      val p = preds(i)
      val v = bound(p.posIdx)
      if (v == null || !evalAgainst(v, p.op, b, p.negOnLeft)) return false
      i += 1
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

  /** Bind the buffered events of in-place leaf `leaf` in the timestamp range
    * that `pm` allows to a new instance `pm`, until an emission kills `pm`.
    */
  private def extend(pm: PartialMatch, leaf: NodeInfo): Unit =
    if (leaf.kleene) spawnKleene(pm, leaf, null)
    else {
      val buf = buffers(leaf.leafElem)
      val end = buf.firstAfter(tsCeil(pm.bound, leaf.after))
      var i = buf.firstAtOrAfter(tsFloor(pm.bound, leaf.before))
      while (i < end && !pm.dead) {
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
    val drawn = nMatches
    var m = if (mustInclude == null) 1 else 0 // with `mustInclude`, {e} alone is a binding
    while (m < (1 << base.length) && !(pm != null && pm.dead)) {
      val members = kleeneSubset(base, m, mustInclude)
      if (!consumedSince(drawn, members)) spawn(pm, leaf, members)
      m += 1
    }
  }

  /** The Kleene candidates of `leaf`: the last `maxKleeneBuffer` of its
    * buffered events with a serial below `below` that are compatible with
    * `pm` (read from the timestamp range `pm` allows; with no `pm`: not
    * consumed), counting a cut list in `kleeneTruncated`. Buffered events all
    * lie within [now-W, now], so members are pairwise window-compatible by
    * construction.
    */
  private def kleeneBase(pm: PartialMatch, leaf: NodeInfo, below: Long): Array[Event] = {
    val buf = buffers(leaf.leafElem)
    val compat = mutable.ArrayBuffer.empty[Event]
    val end = if (pm == null) buf.size else buf.firstAfter(tsCeil(pm.bound, leaf.after))
    var i = if (pm == null) 0 else buf.firstAtOrAfter(tsFloor(pm.bound, leaf.before))
    while (i < end) {
      val b = buf(i)
      if (b.serial < below && compatible(pm, leaf, b)) compat += b
      i += 1
    }
    if (compat.length > config.maxKleeneBuffer) kleeneTruncated += 1
    compat.takeRight(config.maxKleeneBuffer).toArray
  }

  /** One Kleene binding (§5.2): the members of `base` selected by bit mask
    * `m`, in buffer order, then `last` when it is not null.
    */
  private def kleeneSubset(base: Array[Event], m: Int, last: Event): Array[Event] = {
    val members = new Array[Event](Integer.bitCount(m) + (if (last == null) 0 else 1))
    var j = 0
    var i = 0
    while (i < base.length) {
      if ((m & (1 << i)) != 0) { members(j) = base(i); j += 1 }
      i += 1
    }
    if (last != null) members(j) = last
    members
  }

  /** The latest timestamp of the events `bound` binds at `elems`: an event
    * that an ordering predicate puts after all of them has a timestamp at or
    * above it. Minus infinity when `elems` is empty.
    */
  private def tsFloor(bound: Array[AnyRef], elems: Array[Int]): Double = {
    var t = Double.NegativeInfinity
    var k = 0
    while (k < elems.length) { t = math.max(t, maxTsOf(bound(elems(k)))); k += 1 }
    t
  }

  /** The earliest timestamp of the events `bound` binds at `elems`, the
    * upper end of a range as [[tsFloor]] is the lower one.
    */
  private def tsCeil(bound: Array[AnyRef], elems: Array[Int]): Double = {
    var t = Double.PositiveInfinity
    var k = 0
    while (k < elems.length) { t = math.min(t, minTsOf(bound(elems(k)))); k += 1 }
    t
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

  // --- test access -------------------------------------------------------------

  /** The live counter. */
  private[cep] def liveNow: Long = liveCount
  /** A recount of the non-dead partial matches the engine holds. */
  private[cep] def heldLive: Long =
    lists.iterator.map(list => (0 until list.size).count(!list(_).dead).toLong).sum
  private[cep] def consumedSize: Int = consumed.size
  /** Whether an arrival at positive element `elem` reads the clock. */
  private[cep] def readsClockAt(elem: Int): Boolean = readsClock(elem)
  /** Held non-dead partial matches that hold a consumed event. */
  private[cep] def heldConsumed: Long =
    lists.iterator.map(list => (0 until list.size).count(i => !list(i).dead && holdsConsumed(list(i).bound)).toLong).sum
}
