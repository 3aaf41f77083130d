package repro.cep

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

/** The buffered events of one run in arrival order, as parallel primitive
  * arrays of timestamp, buffer slot and serial: eviction reads the head
  * without following an `Event` pointer. A ring whose capacity is a power of
  * two; it doubles when full and unwraps as it does.
  */
private[cep] final class ArrivalRing {
  private var ts = new Array[Double](16)
  private var slots = new Array[Int](16)
  private var serials = new Array[Long](16)
  private var head = 0
  private var count = 0

  def size: Int = count
  def headTs: Double = ts(head)
  def headSlot: Int = slots(head)
  def headSerial: Long = serials(head)

  def removeHead(): Unit = { head = (head + 1) & (ts.length - 1); count -= 1 }

  def append(t: Double, slot: Int, serial: Long): Unit = {
    if (count == ts.length) grow()
    val i = (head + count) & (ts.length - 1)
    ts(i) = t; slots(i) = slot; serials(i) = serial
    count += 1
  }

  private def grow(): Unit = {
    ts = Ring.unwrap(ts, head, new Array[Double](2 * count))
    slots = Ring.unwrap(slots, head, new Array[Int](2 * count))
    serials = Ring.unwrap(serials, head, new Array[Long](2 * count))
    head = 0
  }
}

private[cep] object Ring {
  /** Copy full ring `a` whose oldest entry is at `head` into `b`, oldest
    * first, and return `b`.
    */
  def unwrap[A](a: Array[A], head: Int, b: Array[A]): Array[A] = {
    System.arraycopy(a, head, b, 0, a.length - head)
    System.arraycopy(a, 0, b, a.length - head, head)
    b
  }
}

/** The in-window events of one buffer slot in arrival order, hence in
  * (ts, serial) order, with their timestamps in a parallel primitive array:
  * [[firstAtOrAfter]] finds the ends of a timestamp range by binary search.
  * A ring whose capacity is a power of two; it doubles when full and unwraps
  * as it does. Index `i` counts from the oldest event.
  */
private[cep] final class EventRing {
  private var times = new Array[Double](16)
  private var events = new Array[Event](16)
  private var head = 0
  private var count = 0

  def size: Int = count
  def apply(i: Int): Event = events((head + i) & (events.length - 1))
  def ts(i: Int): Double = times((head + i) & (times.length - 1))

  def append(e: Event): Unit = {
    if (count == times.length) grow()
    val i = (head + count) & (times.length - 1)
    times(i) = e.ts; events(i) = e
    count += 1
  }

  def removeHead(): Unit = {
    events(head) = null
    head = (head + 1) & (times.length - 1)
    count -= 1
  }

  /** The index of the first event with a timestamp at or after `t`, or
    * [[size]] when there is none. A range open at either end costs no search.
    */
  def firstAtOrAfter(t: Double): Int = {
    if (count == 0 || times(head) >= t) return 0
    if (ts(count - 1) < t) return count
    var lo = 0 // ts(lo) < t
    var hi = count - 1 // ts(hi) >= t
    while (hi - lo > 1) {
      val mid = (lo + hi) >>> 1
      if (ts(mid) < t) lo = mid else hi = mid
    }
    hi
  }

  /** The index of the first event with a timestamp after `t`, or [[size]]. */
  def firstAfter(t: Double): Int = firstAtOrAfter(Math.nextUp(t))

  private def grow(): Unit = {
    times = Ring.unwrap(times, head, new Array[Double](2 * count))
    events = Ring.unwrap(events, head, new Array[Event](2 * count))
    head = 0
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
