package repro.data

import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions._
import repro.cep.Event
import repro.core._
import repro.spark.EventRow

/** Configuration of the synthetic NASDAQ-like tick stream (§7.2 substitution).
  *
  * The paper's dataset: 1 year of price updates, 2100 symbols, 80.5M events,
  * rates 1–45 ev/s, window 20 min (⇒ up to 54k events of one type per window —
  * which is why their experiments took 1.5 months). We scale the time axis:
  * rates are log-uniform in [rateMin, rateMax] per abstract time unit and the
  * window is ~1 unit, keeping per-window buffers laptop-sized while preserving
  * the rate skew that drives plan quality differences.
  *
  * @param nTypes  number of stock symbols (event types)
  * @param horizon stream duration in time units
  * @param rateMin minimum arrival rate (events per unit)
  * @param rateMax maximum arrival rate (events per unit)
  * @param window  pattern time window W (time units)
  * @param seed    master seed — generation is deterministic in (cfg)
  */
final case class StockConfig(
    nTypes: Int = 20,
    horizon: Double = 200.0,
    rateMin: Double = 1.0,
    rateMax: Double = 20.0,
    window: Double = 1.0,
    seed: Long = 7,
)

/** Synthetic stock-tick stream generation and statistics measurement.
  *
  * Events carry `difference` (the preprocessed price-delta attribute of §7.2,
  * standard normal here) and a price. Arrival processes are Poisson-like: a
  * deterministic per-type count `r_i·horizon` with i.i.d. uniform timestamps.
  * The stream is generated on the driver; rates and predicate selectivities
  * are then *measured* from it (Spark aggregations over a DataFrame made from
  * it, empirical quantiles), mirroring the paper's preprocessing stage.
  */
object StockData {

  /** Deterministic log-uniform per-type rates. */
  def configuredRates(cfg: StockConfig): Vector[Double] = {
    val rnd = new scala.util.Random(cfg.seed)
    Vector.fill(cfg.nTypes) {
      math.exp(math.log(cfg.rateMin) + rnd.nextDouble() * (math.log(cfg.rateMax) - math.log(cfg.rateMin)))
    }
  }

  /** The tick stream of `cfg`, generated on the driver so that it depends on
    * `cfg` alone, never on the number of cores. Type `i` gets
    * `max(1, round(r_i·horizon))` events; one `java.util.Random(seed)` draws,
    * event by event and type by type, `ts` uniform on [0, horizon), `difference`
    * ~ N(0,1) and price 100 + 10·N(0,1). Events are in (ts, typeId) order and
    * the serial (the stream position used by contiguity, §6.2) is the position.
    */
  def events(cfg: StockConfig): Array[Event] = {
    val rnd = new java.util.Random(cfg.seed)
    val drawn = for {
      (r, t) <- configuredRates(cfg).zipWithIndex
      _ <- 0L until math.max(1L, math.round(r * cfg.horizon))
    } yield {
      val ts = rnd.nextDouble() * cfg.horizon
      val diff = rnd.nextGaussian()
      (t, ts, diff, 100.0 + 10.0 * rnd.nextGaussian())
    }
    drawn.sortBy { case (t, ts, _, _) => (ts, t) }.zipWithIndex.map {
      case ((t, ts, diff, price), s) => Event(t, ts, s.toLong, Array(diff, price))
    }.toArray
  }

  /** The stream as a DataFrame [typeId, ts, serial, diff, price], for the
    * Spark-side measurement and the Spark runners.
    */
  def streamDF(spark: SparkSession, events: Array[Event]): DataFrame =
    spark.createDataFrame(events.toSeq.map(e => EventRow(e.typeId, e.ts, e.serial, e.diff, e.attrs(1))))

  /** Arrival rates measured from the stream (Spark aggregation, as in §7.2). */
  def measuredRates(df: DataFrame, horizon: Double): Map[Int, Double] =
    df.groupBy("typeId")
      .agg(count(lit(1)) as "n")
      .collect()
      .map(r => r.getInt(0) -> r.getLong(1).toDouble / horizon)
      .toMap

  /** Up to `maxPerType` `difference` samples per type, sorted ascending — the
    * empirical distributions used for selectivity measurement and for dialing
    * predicate shifts to target selectivities.
    */
  def diffSamples(df: DataFrame, maxPerType: Int = 2000): Map[Int, Array[Double]] =
    df.select("typeId", "diff", "serial")
      .collect()
      .groupBy(_.getInt(0))
      .map { case (t, rows) =>
        t -> rows.sortBy(_.getLong(2)).take(maxPerType).map(_.getDouble(1)).sorted
      }

  /** The §7.2 preprocessing step: planning statistics measured from the stream
    * generated for `cfg` (rates, `difference` samples, window, total rate).
    */
  def provider(df: DataFrame, cfg: StockConfig): MeasuredStatsProvider = {
    val rates = measuredRates(df, cfg.horizon)
    new MeasuredStatsProvider(rates, diffSamples(df), cfg.window, rates.values.sum)
  }
}

/** Statistics provider backed by measured stream statistics (§7.2: "all arrival
  * rates and predicate selectivities were calculated during the preprocessing
  * stage").
  *
  * @param rates     measured per-type arrival rates
  * @param diffs     per-type `difference` samples, each sorted ascending
  * @param window    pattern window W
  * @param totalRate total stream rate (for the contiguity adjacency estimate)
  */
final class MeasuredStatsProvider(
    rates: Map[Int, Double],
    diffs: Map[Int, Array[Double]],
    val window: Double,
    totalRate: Double,
) extends StatsProvider {
  diffs.foreach { case (t, xs) =>
    require((1 until xs.length).forall(i => xs(i - 1) <= xs(i)),
      s"difference samples of type $t are not sorted ascending")
  }

  override def rate(elem: Elem): Double = rates(elem.typeId)

  /** `AttrCmp` selectivity: the share of sample pairs (x, y), x of `a`'s type
    * and y of `b`'s, with `x + shift < y`, clamped to [1e-4, 1 − 1e-4] and
    * complemented for `less = false`. Both sample arrays are sorted, so
    * `x + shift` never decreases along `a`'s samples and one merge pass counts
    * every pair in O(|xs| + |ys|).
    */
  override def predSelectivity(a: Elem, b: Elem, op: PredOp): Double = op match {
    case TsLess => 0.5 // pairwise independence approximation for order constraints
    case SerialSucc =>
      // P(two window-mates are stream-adjacent) ≈ 1/(W · total rate).
      math.min(1.0, 1.0 / (window * totalRate))
    case AttrCmp(attr, shift, less) =>
      require(attr == 0, "selectivity measurement is defined on the difference attribute")
      val xs = diffs(a.typeId)
      val ys = diffs(b.typeId)
      // lo = number of ys ≤ xs(i) + shift; it only grows with i.
      var hits = 0L
      var lo = 0
      var i = 0
      while (i < xs.length) {
        val t = xs(i) + shift
        while (lo < ys.length && ys(lo) <= t) lo += 1
        hits += ys.length - lo
        i += 1
      }
      val p = hits.toDouble / (xs.length.toDouble * ys.length)
      val pLess = math.max(1e-4, math.min(1.0 - 1e-4, p)) // clamp away from 0/1
      if (less) pLess else 1.0 - pLess
  }

  /** Shift θ such that P(x + θ < y) ≈ target, from the empirical distribution of
    * cross differences d = y − x (θ = quantile of d at 1 − target). The 4000
    * differences are drawn with the index sequence `scala.util.Random(seed)`'s
    * `nextInt` gives, and the quantile is the value a full ascending sort would
    * put at its rank, found by selection in linear expected time.
    */
  def shiftForTargetSelectivity(aType: Int, bType: Int, target: Double, seed: Long): Double = {
    val rnd = new MeasuredStatsProvider.Lcg(seed)
    val xs = diffs(aType)
    val ys = diffs(bType)
    val m = 4000
    val ds = new Array[Double](m)
    var k = 0
    while (k < m) { ds(k) = ys(rnd.nextInt(ys.length)) - xs(rnd.nextInt(xs.length)); k += 1 }
    val q = math.max(0, math.min(m - 1, math.round((1.0 - target) * (m - 1)).toInt))
    MeasuredStatsProvider.select(ds, q)
  }
}

object MeasuredStatsProvider {

  /** The value `java.util.Arrays.sort(a)` leaves at index `k`, that is the k-th
    * smallest under `java.lang.Double.compare` (−0.0 before 0.0), found by
    * Hoare's FIND (CACM Algorithm 65, 1961) in linear expected time. Reorders `a`.
    */
  private[data] def select(a: Array[Double], k: Int): Double = {
    require(k >= 0 && k < a.length, s"rank $k outside an array of ${a.length}")
    var lo = 0
    var hi = a.length - 1
    while (lo < hi) {
      val pivot = a((lo + hi) >>> 1)
      var i = lo
      var j = hi
      while (i <= j) {
        while (java.lang.Double.compare(a(i), pivot) < 0) i += 1
        while (java.lang.Double.compare(a(j), pivot) > 0) j -= 1
        if (i <= j) { val t = a(i); a(i) = a(j); a(j) = t; i += 1; j -= 1 }
      }
      // a(lo..j) ≤ pivot ≤ a(i..hi), and every slot between j and i holds the pivot.
      if (k <= j) hi = j
      else if (k >= i) lo = i
      else return a(k)
    }
    a(k)
  }

  /** `java.util.Random`'s documented 48-bit linear congruential generator and
    * its `nextInt(bound)`: the same sequence for the same seed, without the
    * atomic compare-and-set `java.util.Random` pays on every draw.
    */
  private[data] final class Lcg(seed0: Long) {
    private final val Multiplier = 0x5DEECE66DL
    private final val Mask = (1L << 48) - 1
    private var seed = (seed0 ^ Multiplier) & Mask

    private def next(bits: Int): Int = {
      seed = (seed * Multiplier + 0xBL) & Mask
      (seed >>> (48 - bits)).toInt
    }

    def nextInt(bound: Int): Int = {
      require(bound > 0, "bound must be positive")
      var r = next(31)
      val m = bound - 1
      if ((bound & m) == 0) ((bound * r.toLong) >> 31).toInt
      else {
        var u = r
        r = u % bound
        while (u - r + m < 0) { u = next(31); r = u % bound }
        r
      }
    }
  }
}
