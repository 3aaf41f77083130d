package repro.cep

import repro.core._
import scala.collection.mutable
import scala.util.control.ControlThrowable

/** A partial match: an instance of plan node `node`. `bound(elem)` is an
  * Event, an Array[Event] for a Kleene element, or null for an element outside
  * the node.
  */
private[cep] final class PartialMatch(
    val node: Int,
    val bound: Array[AnyRef],
    val minTs: Double,
    val maxTs: Double,
) { var dead: Boolean = false }

/** The partial matches of one plan node, in creation order. A scan that
  * releases entries keeps a run of them and moves it to the front ([[keep]]);
  * dropping a prefix costs O(1).
  */
private[cep] final class PmList {
  private var items = new Array[AnyRef](16)
  private var start = 0
  private var end = 0

  def size: Int = end - start
  def apply(i: Int): PartialMatch = items(start + i).asInstanceOf[PartialMatch]
  def update(i: Int, pm: PartialMatch): Unit = items(start + i) = pm

  def +=(pm: PartialMatch): Unit = {
    if (end == items.length) {
      val n = end - start
      val dst = if (2 * n <= items.length) items else new Array[AnyRef](2 * items.length)
      System.arraycopy(items, start, dst, 0, n)
      if (dst eq items) java.util.Arrays.fill(items, n, end, null)
      items = dst; start = 0; end = n
    }
    items(end) = pm
    end += 1
  }

  /** End a scan of the first `scanned` entries that kept `count` of them,
    * stored from index `from` on: drop the rest of the scanned range.
    */
  def keep(from: Int, count: Int, scanned: Int): Unit = {
    val gapStart = start + from + count
    val gap = scanned - from - count
    if (gap > 0) {
      System.arraycopy(items, gapStart + gap, items, gapStart, end - gapStart - gap)
      java.util.Arrays.fill(items, end - gap, end, null)
      end -= gap
    }
    if (from > 0) {
      java.util.Arrays.fill(items, start, start + from, null)
      start += from
    }
  }
}

/** A set of event serials without boxing: open addressing with linear
  * probing, deletion by backward shift. Holds the consumed serials of one run,
  * which are all within the window.
  */
private[cep] final class SerialSet {
  private var keys = new Array[Long](16)
  private var used = new Array[Boolean](16)
  private var shift = 60 // 64 - log2(capacity)
  private var count = 0

  def size: Int = count

  /** Fibonacci hashing: the top bits of k·2^64/φ spread runs of serials. */
  private def home(k: Long): Int = ((k * 0x9E3779B97F4A7C15L) >>> shift).toInt

  def contains(k: Long): Boolean = {
    val mask = keys.length - 1
    var i = home(k)
    while (used(i)) {
      if (keys(i) == k) return true
      i = (i + 1) & mask
    }
    false
  }

  def +=(k: Long): Unit = {
    if (2 * (count + 1) > keys.length) {
      val (oldKeys, oldUsed) = (keys, used)
      keys = new Array[Long](2 * oldKeys.length)
      used = new Array[Boolean](2 * oldKeys.length)
      shift -= 1
      count = 0
      var j = 0
      while (j < oldKeys.length) { if (oldUsed(j)) this += oldKeys(j); j += 1 }
    }
    val mask = keys.length - 1
    var i = home(k)
    while (used(i)) {
      if (keys(i) == k) return
      i = (i + 1) & mask
    }
    keys(i) = k; used(i) = true; count += 1
  }

  def -=(k: Long): Unit = {
    val mask = keys.length - 1
    var i = home(k)
    while (used(i) && keys(i) != k) i = (i + 1) & mask
    if (!used(i)) return
    // Shift later entries of the probe run back into the hole, unless their
    // home slot lies cyclically in (hole, entry].
    var j = (i + 1) & mask
    while (used(j)) {
      val h = home(keys(j))
      val stays = if (i <= j) i < h && h <= j else i < h || h <= j
      if (!stays) { keys(i) = keys(j); i = j }
      j = (j + 1) & mask
    }
    used(i) = false
    count -= 1
  }
}

/** The per-event path and the run state of the evaluation engine.
  *
  * Per event: the input-order guard, the event counter and clock, the
  * 1024-event sweep check and a type dispatch through an array indexed by
  * `typeId`. An event of a type the pattern does not use stops there. An event
  * of a pattern type first evicts the buffered events that left the window
  * (one arrival-ordered FIFO drives this, and it also prunes the consumed
  * set), is buffered, and, for a positive element, is handed to
  * [[onEvent]]. Eviction may wait for a pattern event: the cutoff only grows,
  * and the buffers are read only after such an event.
  *
  * Partial matches live in `lists`, one per plan node. `liveCount` is the
  * number of non-dead partial matches held there: the engine's scan drops
  * expired and dead entries as it passes them
  * ([[expire]], [[PmList.keep]]), and the sweep does so for lists no scan
  * reached. A match emitted in the middle of a scan runs [[killConsumed]]
  * over the list being compacted, so an entry dropped as expired is also
  * marked dead and never counted twice.
  *
  * @param bufferedElems which positive elements keep a buffer of their events
  * @param nLists        number of partial-match lists
  */
private[cep] abstract class EngineCore(
    branch: PlannedBranch,
    config: EngineConfig,
    bufferedElems: Array[Boolean],
    nLists: Int,
) extends CepEngine {

  protected final val positive: SimplePattern = branch.positive
  protected final val n: Int = positive.size
  protected final val W: Double = positive.window
  protected final val consuming: Boolean = branch.strategy != AnyMatch

  /** Per typeId: the positive element (0..n-1), n + negation spec, or -1. */
  private val slotOfType: Array[Int] = {
    val types = positive.elems.map(_.typeId) ++ branch.negs.map(_.elem.typeId)
    require(types.forall(_ >= 0), s"event type ids must be non-negative: $types")
    val a = Array.fill(if (types.isEmpty) 0 else types.max + 1)(-1)
    types.zipWithIndex.foreach { case (t, s) => a(t) = s }
    a
  }
  /** Positive elements whose events enter the FIFO: buffered ones, and under a
    * consuming strategy all of them, so that consumed serials leave with them.
    */
  private val inFifo: Array[Boolean] = bufferedElems.map(_ || consuming)
  private val negDeps: Array[Array[Int]] = branch.negs.map(_.dependsOn.toArray).toArray
  private val negPreds: Array[Array[NegPred]] = branch.negs.map(_.preds.toArray).toArray

  // --- run state ------------------------------------------------------------
  protected final val buffers: Array[mutable.ArrayDeque[Event]] =
    Array.fill(n)(mutable.ArrayDeque.empty[Event])
  private val negBuffers = Array.fill(branch.negs.size)(mutable.ArrayDeque.empty[Event])
  private val fifo = mutable.ArrayDeque.empty[Event]
  protected final val lists: Array[PmList] = Array.fill(nLists)(new PmList)
  protected final val consumed = new SerialSet
  protected final var now: Double = Double.NegativeInfinity
  private var prev: Event = _
  private var liveCount = 0L
  private var bufferedCount = 0L
  private var nEvents = 0L
  private var nMatches = 0L
  private var pmCreated = 0L
  private var peakLive = 0L
  private var peakBuffered = 0L
  private var latSum = 0L
  private var tEventStart = 0L
  private var out: mutable.ArrayBuffer[CepMatch] = _
  private var wasCapped = false

  private object Abort extends ControlThrowable

  /** Process an event of positive element `elem`; it is already buffered
    * when `bufferedElems(elem)`.
    */
  protected def onEvent(elem: Int, e: Event): Unit

  /** Process `events` (sorted by (ts, serial); an event that breaks the order
    * throws IllegalArgumentException) and report matches and counters.
    */
  override final def run(events: IndexedSeq[Event]): RunResult = {
    out = mutable.ArrayBuffer.empty[CepMatch]
    val t0 = System.nanoTime()
    try {
      var i = 0
      while (i < events.length) { process(events(i)); i += 1 }
    } catch { case Abort => wasCapped = true }
    val wall = System.nanoTime() - t0
    RunResult(
      RunStats(nEvents, nMatches, pmCreated, peakLive, peakBuffered, wall, latSum),
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
      if (slot >= n) {
        negBuffers(slot - n).append(e); fifo.append(e); countBuffered()
      } else {
        if (bufferedElems(slot)) { buffers(slot).append(e); countBuffered() }
        if (inFifo(slot)) fifo.append(e)
        tEventStart = System.nanoTime()
        onEvent(slot, e)
      }
    }
  }

  private def outOfOrder(e: Event): Nothing = {
    def show(x: Event) = s"(type ${x.typeId}, ts ${x.ts}, serial ${x.serial})"
    throw new IllegalArgumentException(
      s"events must be sorted by (ts, serial): event ${show(e)} follows ${show(prev)}")
  }

  private def countBuffered(): Unit = {
    bufferedCount += 1
    if (bufferedCount > peakBuffered) peakBuffered = bufferedCount
  }

  /** Drop buffered events older than the window, and their consumed serials.
    * Every buffer is a subsequence of the FIFO, so the FIFO's head is also the
    * head of its own buffer.
    */
  private def evict(): Unit = {
    val cutoff = now - W
    while (fifo.nonEmpty && fifo.head.ts < cutoff) {
      val ev = fifo.removeHead()
      val slot = slotOfType(ev.typeId)
      if (slot >= n) { negBuffers(slot - n).removeHead(); bufferedCount -= 1 }
      else {
        if (bufferedElems(slot)) { buffers(slot).removeHead(); bufferedCount -= 1 }
        if (consuming) consumed -= ev.serial
      }
    }
  }

  // --- partial matches -------------------------------------------------------

  /** Count a newly created partial match; aborts the run past `pmCap`. */
  protected final def countCreated(): Unit = {
    pmCreated += 1
    if (pmCreated > config.pmCap) throw Abort
  }

  /** Store a live partial match in list `l`. */
  protected final def hold(l: Int, pm: PartialMatch): Unit = {
    lists(l) += pm
    liveCount += 1
    if (liveCount > peakLive) peakLive = liveCount
  }

  /** Release a non-dead partial match that a scan found expired. */
  protected final def expire(pm: PartialMatch): Unit = { pm.dead = true; liveCount -= 1 }

  /** Every `1 << 10` events: release expired and dead entries of all lists. */
  private def sweep(): Unit = {
    val cutoff = now - W
    var l = 0
    while (l < lists.length) {
      val list = lists(l)
      val sz = list.size
      var gone = 0 // released entries before the first kept one
      var kept = 0 // kept entries, moved up to follow the `gone` prefix
      var i = 0
      while (i < sz) {
        val pm = list(i)
        if (!pm.dead && pm.minTs >= cutoff) {
          if (gone + kept != i) list(gone + kept) = pm
          kept += 1
        } else {
          if (!pm.dead) expire(pm)
          if (kept == 0) gone += 1
        }
        i += 1
      }
      list.keep(gone, kept, sz)
      l += 1
    }
  }

  // --- consumption and emission ---------------------------------------------

  protected final def holdsConsumed(bound: Array[AnyRef]): Boolean = {
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

  /** The number of matches emitted so far: under a consuming strategy, no
    * event was consumed while it stays the same.
    */
  protected final def emitted: Long = nMatches

  /** Whether an emission after the `since`-th consumed a member of `a`. */
  protected final def consumedSince(since: Long, a: Array[Event]): Boolean =
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
  protected final def emit(m: PartialMatch): Unit = {
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

  /** One Kleene binding (§5.2): the members of `base` selected by bit mask
    * `m`, in buffer order, then `last` when it is not null.
    */
  protected final def kleeneSubset(base: Array[Event], m: Int, last: Event): Array[Event] = {
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

  // --- predicates and negation -----------------------------------------------

  /** `op` between a bound value (Event, or every member of a Kleene binding)
    * and `ev`, with `ev` on the left side when `evIsLeft`.
    */
  protected final def evalAgainst(boundVal: AnyRef, op: PredOp, ev: Event, evIsLeft: Boolean): Boolean =
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

  /** §5.3: does a buffered event of negation spec `k` block `bound`? It must
    * lie within W of every bound dependency and satisfy its predicates against
    * them. Negated events are never consumed: every element has its own type.
    */
  protected final def negBlocked(k: Int, bound: Array[AnyRef]): Boolean = {
    val buf = negBuffers(k)
    var i = 0
    while (i < buf.length) {
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

  // --- test access -------------------------------------------------------------

  /** The live counter. */
  private[cep] def liveNow: Long = liveCount
  /** A recount of the non-dead partial matches the engine holds. */
  private[cep] def heldLive: Long =
    lists.iterator.map(list => (0 until list.size).count(!list(_).dead).toLong).sum
  private[cep] def consumedSize: Int = consumed.size
  /** Held non-dead partial matches that hold a consumed event. */
  private[cep] def heldConsumed: Long =
    lists.iterator.map(list => (0 until list.size).count(i => !list(i).dead && holdsConsumed(list(i).bound)).toLong).sum
}
