package repro.perfbench

import java.util.concurrent.atomic.AtomicLong
import org.apache.spark.scheduler.{SparkListener, SparkListenerTaskEnd}
import org.apache.spark.sql.{DataFrame, SparkSession}
import repro.cep._
import repro.core._
import repro.data._
import repro.spark.{EventRow, SegmentedRunner}
import scala.collection.immutable.ArraySeq

/** Task counters of every Spark job, from a listener the benchmark registers. */
final class TaskCounters extends SparkListener {
  val tasks = new AtomicLong
  val runMs = new AtomicLong
  val shuffleWriteBytes = new AtomicLong
  val gcMs = new AtomicLong

  override def onTaskEnd(end: SparkListenerTaskEnd): Unit = {
    tasks.incrementAndGet()
    val m = end.taskMetrics
    if (m != null) {
      runMs.addAndGet(m.executorRunTime)
      shuffleWriteBytes.addAndGet(m.shuffleWriteMetrics.bytesWritten)
      gcMs.addAndGet(m.jvmGCTime)
    }
  }

  def snapshot: Vector[Long] = Vector(tasks.get, runMs.get, shuffleWriteBytes.get, gcMs.get)
}

/** `spark-segmented`: `SegmentedRunner` over the benchmark's stream, loaded
  * into a cached DataFrame, for sequence, negation and conjunction patterns
  * planned by DP-LD and DP-B, under skip-till-any (the one strategy the runner
  * is exact under).
  *
  * The Spark part times the jobs and the set-up with the session, takes the
  * memory metric from the uncapped reference runs of the same branches and
  * plans the same patterns with all nine planners for plan quality. A traced
  * run adds the driver part, a JVM of its own that runs the same branches on
  * the driver-side engines for the per-layer `cep.*` metrics.
  */
object SparkSegmented {
  val shape: StreamShape = StreamShape(20, 80.0, 1.0, 10.0, 1.0)
  val categories: Vector[Category] = Vector(SequenceCat, NegationCat, ConjunctionCat)
  val sizes: Vector[Int] = Vector(3, 5)
  val algos: Vector[Algo] = Vector(DP_LD, DP_B)

  /** Task slots: at most four, and no more than the cores. */
  val slots: Int = math.min(4, Runtime.getRuntime.availableProcessors)
  val shufflePartitions = 8

  /** The reference run is uncapped, so its count is exact. */
  val reference: EngineConfig = EngineConfig(collectMatches = false)

  def session(): SparkSession =
    SparkSession.builder()
      .master(s"local[$slots]")
      .appName("perfbench")
      .config("spark.sql.shuffle.partitions", shufflePartitions.toLong)
      .config("spark.default.parallelism", shufflePartitions.toLong)
      .config("spark.sql.adaptive.enabled", "false")
      .config("spark.sql.autoBroadcastJoinThreshold", -1L)
      .config("spark.ui.enabled", "false")
      .getOrCreate()

  final case class Plans(world: World, patterns: Vector[GridPattern], cells: Vector[GridCell],
                         streamMs: Double, statsMs: Double, patternMs: Double, planMs: Double)

  /** Stream, statistics, patterns and the DP-LD and DP-B plans. */
  def plans(seed: Long): Plans = {
    val t0 = System.nanoTime()
    val events = World.stream(shape, Grid.rateSeed, seed)
    val t1 = System.nanoTime()
    val provider = World.measure(shape, events)
    val t2 = System.nanoTime()
    val pats = for (c <- categories; n <- sizes) yield
      GridPattern(c, n, 0, "any", AnyMatch, PatternGen.generate(c, n, shape.nTypes, provider, seed = n.toLong))
    val t3 = System.nanoTime()
    val cells = pats.flatMap(Engines.plan(_, provider, algos))
    val t4 = System.nanoTime()
    Plans(World(shape, events, provider), pats, cells,
      Stat.ms(t1 - t0), Stat.ms(t2 - t1), Stat.ms(t3 - t2), Stat.ms(t4 - t3))
  }

  def run(args: Args, report: Report): Unit =
    if (args.part == "driver") runDriver(args, report) else runSpark(args, report)

  /** Per-layer metrics of the driver-side engines on the same branches, and
    * the spans of planning and running them; traced runs only.
    */
  def runDriver(args: Args, report: Report): Unit = {
    val setups = Setups.repeat(report, args)(plans(args.seed))
    val p = setups.last
    val events = ArraySeq.unsafeWrapArray(p.world.events)
    report.note(s"world: ${p.world.fingerprint}")
    Passes.warmUp(8, args.seconds * 0.3)(p.cells.foreach(Engines.run(_, events)))
    val passes = Passes.timed(args.seconds * 0.2, 3)(p.cells.map(Engines.run(_, events)))
    Engines.check(report, p.cells, passes)
    val runs = Engines.best(passes)
    Engines.count(report, p.cells, runs)
    Engines.perLayer(report, p.cells, runs, p.cells.map(Engines.run(_, events, countAlloc = true)))
    Tracing.compare(report, args) {
      Trace.span("workload") {
        p.patterns.foreach { gp =>
          Trace.span("pattern")(Engines.plan(gp, p.world.provider, algos).foreach(Engines.run(_, events)))
        }
      }
    }
  }

  final case class Setup(spark: SparkSession, plans: Plans, df: DataFrame)

  /** The Spark session, the plans and the cached input DataFrame. */
  def setup(seed: Long, previous: Option[Setup]): Setup = {
    previous.foreach { p => p.df.unpersist(); p.spark.stop() }
    val spark = session()
    val p = plans(seed)
    val df = spark.createDataFrame(p.world.events.toSeq.map(e => EventRow(e.typeId, e.ts, e.serial, e.attrs(0), e.attrs(1))))
      .cache()
    df.count()
    Setup(spark, p, df)
  }

  /** One job per cell: the segmented run and its action, timed together. */
  def jobs(s: Setup): Vector[(Long, Long)] = s.plans.cells.map { c =>
    val t0 = System.nanoTime()
    val n = Trace.span("spark.run")(SegmentedRunner.run(s.spark, s.df, c.branches.head).count())
    (System.nanoTime() - t0, n)
  }

  /** Throughput and latency of the segmented jobs, checked against the
    * driver-side engines; memory of those engines and the quality of the plans.
    */
  def runSpark(args: Args, report: Report): Unit = {
    var last: Option[Setup] = None
    val setups = Setups.repeat(report, args) { val x = setup(args.seed, last); last = Some(x); x }
    val s = setups.last
    val cells = s.plans.cells
    val counters = new TaskCounters
    s.spark.sparkContext.addSparkListener(counters)
    val nEvents = s.plans.world.events.length
    report.note(s"world: ${s.plans.world.fingerprint}")
    report.note(s"spark: local[$slots], $shufflePartitions shuffle partitions, ${cells.size} branches " +
      s"(${categories.map(_.name).mkString("/")} x n=${sizes.mkString(",")} x ${algos.mkString("/")}), " +
      s"spark ${s.spark.version}")
    Setups.dataLayer(report, setups.map(x => (x.plans.streamMs, x.plans.statsMs, x.plans.patternMs)))
    report.metric("core.plan_ms", Stat.median(setups.map(_.plans.planMs)), "ms")

    // Correctness: every branch's distributed count equals the uncapped
    // driver-side engine's count.
    val events = ArraySeq.unsafeWrapArray(s.plans.world.events)
    val refs = cells.map(c => Engines.engine(c.branches.head, reference).run(events))
    refs.zip(cells).filter(_._1.capped).foreach(x => report.error(s"reference run capped: ${x._2.label}"))

    // The same patterns planned by all nine planners, checked against T5's
    // invariants.
    val provider = s.plans.world.provider
    var planned = Vector.empty[GridCell]
    def planPass(): Double = {
      val t0 = System.nanoTime(); planned = s.plans.patterns.flatMap(Engines.plan(_, provider, Algo.all))
      (System.nanoTime() - t0) / 1e9
    }
    Passes.warmUp(100, args.seconds * 0.05)(planPass())
    val planPasses = Passes.timed(args.seconds * 0.05, 5)(planPass())
    Planning.check(report, planned)

    val warm = Passes.warmUp(2, args.seconds * 0.3)(jobs(s))
    report.note("spark warm-up pass times [s]: " + warm.map(t => f"$t%.3f").mkString(", "))
    val c0 = counters.snapshot
    val passes = Passes.timed(args.seconds * (if (args.trace) 0.3 else 0.6), 3)(jobs(s))
    Thread.sleep(300) // let the listener bus deliver the last task ends
    val perPass = counters.snapshot.zip(c0).map { case (a, b) => (a - b).toDouble / passes.size }
    passes.foreach(_.zip(refs).zip(cells).foreach { case (((_, n), r), c) =>
      if (n != r.stats.matches) report.error(s"${c.label}: spark counted $n matches, driver engine ${r.stats.matches}")
    })
    report.attempted += cells.size
    report.failed += cells.indices.count(i => passes.exists(_(i)._2 != refs(i).stats.matches))
    val jobNanos = cells.indices.map(i => passes.map(_(i)._1).min)
    report.note(s"timed passes: ${passes.size} spark, matches per pass ${refs.map(_.stats.matches).sum}")
    report.note("spark time share by category: " + categories.map { c =>
      f"${c.name} ${100.0 * cells.indices.filter(cells(_).gp.category == c).map(jobNanos(_)).sum / jobNanos.sum}%.1f%%"
    }.mkString(", "))
    if (!args.trace) {
      report.metric("throughput_keps", nEvents.toDouble * cells.size * 1e6 / jobNanos.sum, "Kev/s")
      report.gmeanMetric("latency_us", jobNanos.map(_ / 1e3).toVector, "us")
      report.metric("peak_live_pm", Stat.gmean(refs.map(_.stats.peakLivePm.toDouble.max(1.0))), "PMs")
      report.metric("plan_s", planPasses.min, "s")
      report.metric("plan_quality", Stat.gmean(Grid.planQuality(planned).filter(q => algos.contains(q._1)).map(_._2)), "ratio")
    } else {
      Planning.perLayer(report, planned, Grid.planQuality(planned))
      val localNanos = cells.map { c =>
        val t0 = System.nanoTime(); SegmentedRunner.runLocal(s.plans.world.events, c.branches.head)
        System.nanoTime() - t0
      }.sum
      val segmentRows = SegmentedRunner.withSegments(s.df, 2 * shape.window, shape.window).count()
      report.metric("spark.job_ms", jobNanos.sum / 1e6, "ms")
      report.metric("spark.local_ms", localNanos / 1e6, "ms")
      report.metric("spark.speedup", localNanos.toDouble / jobNanos.sum, "ratio")
      report.metric("spark.replication", segmentRows.toDouble / nEvents, "ratio")
      report.metric("spark.matches", refs.map(_.stats.matches).sum.toDouble, "count")
      report.metric("spark.tasks", perPass(0), "count")
      report.metric("spark.task_ms", perPass(1), "ms")
      report.metric("spark.shuffle_write_mb", perPass(2) / 1e6, "MB")
      report.metric("spark.gc_ms", perPass(3), "ms")
      Tracing.compare(report, args) {
        Trace.span("workload") {
          cells.groupBy(_.gp).toVector.sortBy(_._2.head.label).foreach { case (_, cs) =>
            Trace.span("pattern") {
              cs.foreach { c =>
                Trace.span("spark.run")(SegmentedRunner.run(s.spark, s.df, c.branches.head).count())
                Trace.span("spark.local")(SegmentedRunner.runLocal(s.plans.world.events, c.branches.head))
              }
            }
          }
          Trace.span("spark.segments")(SegmentedRunner.withSegments(s.df, 2 * shape.window, shape.window).count())
        }
      }
    }
    s.df.unpersist()
    s.spark.stop()
  }
}
