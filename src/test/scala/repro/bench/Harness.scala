package repro.bench

import org.apache.spark.sql.SparkSession
import repro.cep._
import repro.core._
import repro.data._

/** One measured (pattern, algorithm) execution. Disjunction branches are summed
  * (the composite pattern is one detection task, §5.4).
  *
  * @param category    pattern category (T1–T4), or selection strategy (T7)
  * @param throughput  primitive events per second of engine wall time
  * @param pmCreated   partial matches / node instances created
  * @param peakLive    peak simultaneously live partial matches (memory proxy)
  * @param latencyMicros mean detection latency per match, microseconds
  * @param kleeneTruncated Kleene candidate lists that `maxKleeneBuffer` cut
  */
final case class RunRecord(
    category: String,
    size: Int,
    algo: Algo,
    planCost: Double,
    matches: Long,
    throughput: Double,
    pmCreated: Long,
    peakLive: Long,
    latencyMicros: Double,
    capped: Boolean,
    kleeneTruncated: Long,
)

/** The benchmark world: one synthetic NASDAQ-like stream (§7.2 substitution),
  * measured statistics, and helpers to execute planned patterns on the engine.
  *
  * Scales are laptop-sized versions of the paper's setup (see DESIGN.md).
  */
object BenchWorld {

  val patternsPerCell: Int = 5
  val sizes: Vector[Int] = Vector(3, 4, 5, 6, 7)
  val pmCap: Long = 3000000L
  val maxKleeneBuffer: Int = 14

  val cfg: StockConfig = StockConfig(
    nTypes = 20,
    horizon = 150.0,
    rateMin = 1.0,
    rateMax = 18.0,
    window = 1.0,
    seed = 97,
  )

  @volatile private var worldRef: (Array[Event], MeasuredStatsProvider) = _

  /** Generate the stream and measure its statistics with Spark (once). */
  def world(spark: SparkSession): (Array[Event], MeasuredStatsProvider) = synchronized {
    if (worldRef == null) {
      val events = StockData.events(cfg)
      val df = StockData.streamDF(spark, events).cache()
      worldRef = (events, StockData.provider(df, cfg))
      df.unpersist()
    }
    worldRef
  }

  /** Execute every planned branch of one pattern on the engine and sum the
    * branches into one record.
    */
  def execute(
      events: Array[Event],
      branches: Vector[PlannedBranch],
      category: String,
      size: Int,
      algo: Algo,
  ): RunRecord = {
    val cfgEng = EngineConfig(collectMatches = false, pmCap = pmCap, maxKleeneBuffer = maxKleeneBuffer)
    val stream = scala.collection.immutable.ArraySeq.unsafeWrapArray(events)
    val runs = branches.map(b => new TreeEngine(b, cfgEng).run(stream))
    val stats = runs.map(_.stats)
    val wall = stats.map(_.wallNanos).sum
    val matches = stats.map(_.matches).sum
    val streamEvents = events.length.toLong * branches.size
    RunRecord(
      category, size, algo,
      planCost = branches.map(_.cost).sum,
      matches = matches,
      throughput = if (wall == 0) 0 else streamEvents * 1e9 / wall,
      pmCreated = stats.map(_.pmCreated).sum,
      peakLive = stats.map(_.peakLivePm).sum,
      latencyMicros = if (matches == 0) 0 else stats.map(_.latencyNanosSum).sum / 1e3 / matches,
      capped = runs.exists(_.capped),
      kleeneTruncated = stats.map(_.kleeneTruncated).sum,
    )
  }

  /** The primary grid shared by T1–T4: 5 categories × sizes × patterns × 9 algorithms. */
  @volatile private var mainRunsRef: Vector[RunRecord] = _
  def mainRuns(spark: SparkSession): Vector[RunRecord] = synchronized {
    if (mainRunsRef == null) {
      val (events, provider) = world(spark)
      mainRunsRef = (for {
        cat <- Category.all
        size <- sizes
        pid <- 0 until patternsPerCell
      } yield {
        val pattern = PatternGen.generate(cat, size, cfg.nTypes, provider, seed = 1000L * pid + size)
        val recs = Algo.all.map(a =>
          execute(events, Planner.plan(pattern, provider, a), cat.name, size, a))
        // Detection correctness (§2.2): every un-capped plan of the same class
        // must report the same match count.
        val counts = recs.filterNot(_.capped).map(_.matches).toSet
        require(counts.size <= 1,
          s"plans disagree on matches for $cat size=$size pid=$pid: " +
            recs.map(r => s"${r.algo}=${r.matches}${if (r.capped) "(capped)" else ""}").mkString(", "))
        recs
      }).flatten.toVector
    }
    mainRunsRef
  }

  // ---- formatting helpers -------------------------------------------------

  def fmtTable(header: Seq[String], rows: Seq[Seq[String]]): String = {
    val all = header +: rows
    val widths = header.indices.map(i => all.map(_(i).length).max)
    def line(r: Seq[String]) = r.zip(widths).map { case (c, w) => c.padTo(w, ' ') }.mkString("  ")
    (line(header) +: line(header.map("-" * _.length)) +: rows.map(line)).mkString("\n")
  }

  def sig(x: Double): String =
    if (x == 0) "0"
    else if (x >= 100) f"$x%.0f"
    else if (x >= 1) f"$x%.1f"
    else f"$x%.3g"

  /** Geometric mean — the right average for throughputs spanning decades. */
  def gmean(xs: Seq[Double]): Double = {
    val pos = xs.filter(_ > 0)
    if (pos.isEmpty) 0 else math.exp(pos.map(math.log).sum / pos.size)
  }
}
