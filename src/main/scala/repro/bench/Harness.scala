package repro.bench

import org.apache.spark.sql.SparkSession
import repro.cep._
import repro.core._
import repro.data._

/** One measured (pattern, algorithm) execution. Disjunction branches are summed
  * (the composite pattern is one detection task, §5.4).
  *
  * @param throughput  primitive events per second of engine wall time
  * @param pmCreated   partial matches / node instances created
  * @param peakLive    peak simultaneously live partial matches (memory proxy)
  * @param latencyMicros mean detection latency per match, microseconds
  */
final case class RunRecord(
    category: String,
    size: Int,
    patternId: Int,
    algo: Algo,
    strategy: Strategy,
    alpha: Double,
    planCost: Double,
    genNanos: Long,
    events: Long,
    matches: Long,
    throughput: Double,
    pmCreated: Long,
    peakLive: Long,
    latencyMicros: Double,
    capped: Boolean,
)

/** The benchmark world: one synthetic NASDAQ-like stream (§7.2 substitution),
  * measured statistics, and helpers to execute planned patterns on the engines.
  *
  * Scales are laptop-sized versions of the paper's setup (see DESIGN.md); all
  * knobs have env overrides so `bench/test` can be dialed up or down.
  */
object BenchWorld {

  private def envInt(k: String, d: Int) = sys.env.get(k).map(_.toInt).getOrElse(d)
  private def envDouble(k: String, d: Double) = sys.env.get(k).map(_.toDouble).getOrElse(d)

  val patternsPerCell: Int = envInt("REPRO_BENCH_PATTERNS", 5)
  val sizes: Vector[Int] = Vector(3, 4, 5, 6, 7)
  val pmCap: Long = envInt("REPRO_BENCH_PMCAP", 3000000).toLong

  val cfg: StockConfig = StockConfig(
    nTypes = envInt("REPRO_BENCH_TYPES", 20),
    horizon = envDouble("REPRO_BENCH_HORIZON", 150.0),
    rateMin = 1.0,
    rateMax = envDouble("REPRO_BENCH_RATEMAX", 18.0),
    window = 1.0,
    seed = 97,
  )

  @volatile private var worldRef: (Array[Event], MeasuredStatsProvider) = _

  /** Generate the stream with Spark and measure its statistics (once). */
  def world(spark: SparkSession): (Array[Event], MeasuredStatsProvider) = synchronized {
    if (worldRef == null) {
      val df = StockData.streamDF(spark, cfg).cache()
      val rates = StockData.measuredRates(df, cfg.horizon)
      val provider =
        new MeasuredStatsProvider(rates, StockData.diffSamples(df), cfg.window, rates.values.sum)
      worldRef = (StockData.collectEvents(df), provider)
      df.unpersist()
    }
    worldRef
  }

  /** Plan `pattern` with `algo` and execute every branch on the matching engine. */
  def execute(
      events: Array[Event],
      provider: MeasuredStatsProvider,
      pattern: Pattern,
      category: String,
      size: Int,
      patternId: Int,
      algo: Algo,
      strategy: Strategy = AnyMatch,
      alpha: Double = 0.0,
  ): RunRecord = {
    val branches = Planner.plan(pattern, provider, algo, strategy, alpha)
    val cfgEng = EngineConfig(collectMatches = false, pmCap = pmCap, maxKleeneBuffer = 14)
    var wall = 0L; var matches = 0L; var pm = 0L; var peak = 0L; var lat = 0L; var latN = 0L
    var capped = false
    branches.foreach { b =>
      val r = new TreeEngine(b, cfgEng).run(scala.collection.immutable.ArraySeq.unsafeWrapArray(events))
      wall += r.stats.wallNanos
      matches += r.stats.matches
      pm += r.stats.pmCreated
      peak += r.stats.peakLivePm
      lat += r.stats.latencyNanosSum
      latN += r.stats.matches
      capped ||= r.capped
    }
    RunRecord(
      category, size, patternId, algo, strategy, alpha,
      planCost = branches.map(_.cost).sum,
      genNanos = branches.map(_.genNanos).sum,
      events = events.length.toLong * branches.size,
      matches = matches,
      throughput = if (wall == 0) 0 else events.length.toLong * branches.size * 1e9 / wall,
      pmCreated = pm,
      peakLive = peak,
      latencyMicros = if (latN == 0) 0 else lat / 1e3 / latN,
      capped = capped,
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
          execute(events, provider, pattern, cat.name, size, pid, a))
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
