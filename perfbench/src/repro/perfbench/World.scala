package repro.perfbench

import repro.cep.Event
import repro.data.MeasuredStatsProvider

/** Shape of one benchmark stream. It mirrors `repro.data.StockConfig`:
  * log-uniform per-type rates in [rateMin, rateMax], per-type event counts
  * `round(rate · horizon)`, uniform timestamps on [0, horizon), a standard
  * normal `difference` attribute and a price of 100 + 10·N(0,1).
  */
final case class StreamShape(nTypes: Int, horizon: Double, rateMin: Double, rateMax: Double, window: Double)

/** A generated stream with its measured statistics. */
final case class World(shape: StreamShape, events: Array[Event], provider: MeasuredStatsProvider) {

  /** Event count, per-type counts and a hash over every event field, so a run
    * names exactly which inputs it measured.
    */
  def fingerprint: String = {
    val counts = new Array[Int](shape.nTypes)
    var h = 0xcbf29ce484222325L
    def mix(x: Long): Unit = { h ^= x; h *= 0x100000001b3L }
    events.foreach { e =>
      counts(e.typeId) += 1
      mix(e.typeId.toLong); mix(java.lang.Double.doubleToLongBits(e.ts)); mix(e.serial)
      e.attrs.foreach(a => mix(java.lang.Double.doubleToLongBits(a)))
    }
    f"events=${events.length} types=${counts.mkString("/")} hash=$h%016x"
  }
}

/** Driver-side seeded stream generator. It draws on one thread from seeded
  * `java.util.Random`s, so the stream depends on the seeds only, never on the
  * number of cores (unlike `StockData.streamDF`, which draws per partition).
  */
object World {

  /** Per-type rates, log-uniform in [rateMin, rateMax], drawn from `rateSeed`. */
  def rates(shape: StreamShape, rateSeed: Long): Array[Double] = {
    val rnd = new java.util.Random(rateSeed)
    val lo = math.log(shape.rateMin); val span = math.log(shape.rateMax) - lo
    Array.fill(shape.nTypes)(math.exp(lo + span * rnd.nextDouble()))
  }

  /** The stream of a workload, sorted by (ts, serial): its rate profile comes
    * from `rateSeed`, a constant of the workload, and every timestamp and
    * attribute from `seed`.
    */
  def stream(shape: StreamShape, rateSeed: Long, seed: Long): Array[Event] = {
    val rnd = new java.util.Random(seed)
    val rs = rates(shape, rateSeed)
    val counts = rs.map(r => math.max(1L, math.round(r * shape.horizon)).toInt)
    val total = counts.sum
    val types = new Array[Int](total)
    val ts = new Array[Double](total)
    val diff = new Array[Double](total)
    val price = new Array[Double](total)
    var k = 0
    for (t <- counts.indices; _ <- 0 until counts(t)) {
      types(k) = t
      ts(k) = rnd.nextDouble() * shape.horizon
      diff(k) = rnd.nextGaussian()
      price(k) = 100.0 + 10.0 * rnd.nextGaussian()
      k += 1
    }
    // Stream order is (ts, typeId), as in StockData; serial is the position.
    val order = (0 until total).sortBy(i => (ts(i), types(i)))
    order.zipWithIndex.map { case (i, s) =>
      Event(types(i), ts(i), s.toLong, Array(diff(i), price(i)))
    }.toArray
  }

  /** Statistics measured from the stream, as `StockData.measuredRates` and
    * `StockData.diffSamples` do: per-type rate = count / horizon, and up to
    * 2000 `difference` samples per type in stream order, sorted.
    */
  def measure(shape: StreamShape, events: Array[Event]): MeasuredStatsProvider = {
    val byType = events.groupBy(_.typeId)
    val rates = byType.map { case (t, es) => t -> es.length.toDouble / shape.horizon }
    val diffs = byType.map { case (t, es) => t -> es.take(2000).map(_.diff).sorted }
    new MeasuredStatsProvider(rates, diffs, shape.window, rates.values.sum)
  }
}
