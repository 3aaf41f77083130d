package repro.spark

import org.apache.spark.sql.{DataFrame, Dataset, SparkSession}
import org.apache.spark.sql.functions._
import repro.cep.{CepMatch, EngineConfig, Event, TreeEngine}
import repro.core.{NextMatch, PlannedBranch}

/** One stream event as a Dataset row. */
final case class EventRow(typeId: Int, ts: Double, serial: Long, diff: Double, price: Double)

/** One detected match: per-element serial lists plus the window-alignment key. */
final case class MatchRow(seg: Long, serials: Seq[Seq[Long]], minTs: Double)

/** Distributed CEP execution on Spark: the stream is split into half-open
  * segments of length L ≥ W with a W-sized overlap, the (serializable)
  * evaluation engine runs per segment inside `flatMapGroups`, and matches are
  * de-duplicated exactly by attributing each match to the segment containing its
  * earliest event.
  *
  * Every match spans ≤ W time, hence lies fully inside segment
  * `k = ⌊minTs/L⌋` = `[kL, (k+1)L + W)`; each event is replicated to at most two
  * segments. Results are therefore identical to a single driver-side run
  * (asserted by tests). This also covers interior negation (§5.3): a candidate
  * negated event must temporally follow some bound positive, so it lies in
  * `(minTs, minTs + W) ⊂ [kL, (k+1)L + W)` — the same segment as the match.
  */
object SegmentedRunner {

  /** Assign each event to the segments whose extended range [kL, (k+1)L+W)
    * contains it: its own segment, plus the previous one when within W of the
    * boundary.
    */
  def withSegments(events: DataFrame, segLen: Double, window: Double): DataFrame = {
    val own = floor(col("ts") / segLen).cast("long")
    events.select(
      explode(
        when(col("ts") - own * segLen < window && own > 0, array(own, own - 1))
          .otherwise(array(own))
      ) as "seg",
      col("typeId"), col("ts"), col("serial"), col("diff"), col("price"),
    )
  }

  /** The engine's input order, (ts, serial), with timestamps in the total
    * order of `java.lang.Double.compare`; compares without allocating.
    */
  private val byTsSerial: java.util.Comparator[Event] = (a: Event, b: Event) => {
    val c = java.lang.Double.compare(a.ts, b.ts)
    if (c != 0) c else java.lang.Long.compare(a.serial, b.serial)
  }

  /** Run the branch's engine per segment and return the exact global match set. */
  def run(
      spark: SparkSession,
      events: DataFrame,
      branch: PlannedBranch,
      config: EngineConfig = EngineConfig(),
      segLen: Double = -1.0,
  ): Dataset[MatchRow] = {
    import spark.implicits._
    val w = branch.positive.window
    val L = if (segLen > 0) segLen else 2.0 * w
    require(L >= w, s"segment length $L must be at least the window $w")
    require(branch.model.strategy != NextMatch,
      "SegmentedRunner does not support skip-till-next-match: each segment would keep its own " +
        "consumed events, so an event could serve a match in two segments")
    withSegments(events, L, w)
      .as[(Long, Int, Double, Long, Double, Double)]
      .groupByKey(_._1)
      .flatMapGroups { (seg, rows) =>
        val evs = rows
          .map { case (_, t, ts, serial, diff, price) => Event(t, ts, serial, Array(diff, price)) }
          .toArray
        java.util.Arrays.sort(evs, byTsSerial)
        new TreeEngine(branch, config)
          .run(scala.collection.immutable.ArraySeq.unsafeWrapArray(evs))
          .matches
          .iterator
          .filter(m => math.floor(m.minTs / L).toLong == seg)
          .map(m => MatchRow(seg, m.byElem, m.minTs))
      }
  }

  /** Driver-side reference run over the full stream (for tests/benches). */
  def runLocal(events: Array[Event], branch: PlannedBranch, config: EngineConfig = EngineConfig())
      : Vector[CepMatch] = {
    new TreeEngine(branch, config).run(scala.collection.immutable.ArraySeq.unsafeWrapArray(events)).matches
  }
}
