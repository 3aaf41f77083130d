package repro.cep

import repro.core._

/** A primitive event of the input stream.
  *
  * @param typeId event type (stock symbol id in the §7.2 workload)
  * @param ts     occurrence timestamp (abstract time units)
  * @param serial position in the stream (for contiguity, §6.2) — strictly
  *               increasing with `ts`
  * @param attrs  numeric attributes; attrs(0) = `difference`, attrs(1) = price
  */
final case class Event(typeId: Int, ts: Double, serial: Long, attrs: Array[Double]) {
  def diff: Double = attrs(0)
}

/** Pairwise predicate evaluation of the engine, also used to mirror the
  * Catalyst/DuckDB formulations in tests.
  */
object PredEval {
  def eval(op: PredOp, a: Event, b: Event): Boolean = op match {
    case TsLess                   => a.ts < b.ts
    case SerialSucc               => b.serial == a.serial + 1
    case AttrCmp(attr, shift, lt) =>
      if (lt) a.attrs(attr) + shift < b.attrs(attr) else a.attrs(attr) + shift > b.attrs(attr)
  }
}

/** A reported full match: per positive-pattern element (in pattern order), the
  * sorted serials of the primitive events bound there (singleton unless KL).
  * `minTs` supports window-aligned de-duplication in the distributed runner.
  */
final case class CepMatch(byElem: Vector[Vector[Long]], minTs: Double)

/** Aggregate counters of one engine run.
  *
  * @param events        primitive events processed
  * @param matches       full matches emitted
  * @param pmCreated     partial matches (plan-node instances) created
  * @param peakLivePm    peak number of partial matches the engine held. An
  *                      expired one is released when a scan of its list next
  *                      passes it or by the sweep every 1024 events, so this is
  *                      at or above the exact in-window peak
  * @param peakBuffered  peak number of buffered primitive events
  * @param wallNanos     total processing wall time
  * @param latencyNanosSum sum over matches of (emission time − start of
  *                        processing of the completing event), §6.1 definition.
  *                        The start is read after eviction and buffering, and
  *                        only for an event of an element that can complete a
  *                        match: one that no `TsLess` or `SerialSucc` predicate
  *                        orders before another element (of a sequence, its
  *                        temporally last element)
  * @param kleeneTruncated Kleene candidate lists that `maxKleeneBuffer` cut
  */
final case class RunStats(
    events: Long,
    matches: Long,
    pmCreated: Long,
    peakLivePm: Long,
    peakBuffered: Long,
    wallNanos: Long,
    latencyNanosSum: Long,
    kleeneTruncated: Long = 0L,
) {
  def throughput: Double = if (wallNanos == 0) 0.0 else events * 1e9 / wallNanos
  def avgLatencyMicros: Double = if (matches == 0) 0.0 else latencyNanosSum / 1e3 / matches
}

/** Engine knobs.
  *
  * @param collectMatches  keep emitted matches (tests) or count only (bench)
  * @param pmCap           abort threshold on created partial matches — a safety
  *                        valve for pathological plans (the paper just let them
  *                        run for weeks)
  * @param maxKleeneBuffer cap on buffered events considered by one KL subset
  *                        expansion (2^k children; a cut counts in
  *                        `RunStats.kleeneTruncated`); benches keep k small
  */
final case class EngineConfig(
    collectMatches: Boolean = true,
    pmCap: Long = Long.MaxValue,
    maxKleeneBuffer: Int = 16,
)

/** Result of one engine run. `capped` is true when `pmCap` aborted the run. */
final case class RunResult(stats: RunStats, matches: Vector[CepMatch], capped: Boolean)

/** An evaluation engine: [[TreeEngine]] runs both plan families (§2.2, §2.3). */
trait CepEngine {
  /** Process `events` (must be sorted by (ts, serial)) and report matches/stats. */
  def run(events: IndexedSeq[Event]): RunResult
}
