package repro.perfbench

import repro.cep._
import repro.core._
import repro.data._
import scala.collection.immutable.ArraySeq

/** One generated pattern of a workload, under one selection strategy. */
final case class GridPattern(category: Category, size: Int, pid: Int, strategyName: String,
                             strategy: Strategy, pattern: Pattern)

/** One (pattern, planner) cell: the planned branches. */
final case class GridCell(gp: GridPattern, algo: Algo, branches: Vector[PlannedBranch]) {
  def family: String = if (algo.orderBased) "order" else "tree"
  def cost: Double = branches.map(_.cost).sum
  def label: String = s"${gp.category.name}/${gp.strategyName}/n=${gp.size}/p${gp.pid}/${algo.name}"
}

/** What one run of a cell reports. Everything but `nanos`, `latNanosSum` and
  * `allocBytes` is deterministic in the inputs.
  */
final case class CellRun(nanos: Long, events: Long, matches: Long, pmCreated: Long, peakLive: Long,
                         peakBuffered: Long, latNanosSum: Long, capped: Boolean, allocBytes: Long) {
  def counts: (Long, Long, Long, Long, Boolean) = (matches, pmCreated, peakLive, peakBuffered, capped)
}

/** Planning and engine runs of a set of cells, and the metrics they give. */
object Engines {

  /** Engine knobs. `pmCap` is a safety valve only: a capped run is a failed
    * operation and never enters a metric.
    */
  val config: EngineConfig = EngineConfig(collectMatches = false, pmCap = 2000000L, maxKleeneBuffer = 14)

  def plan(gp: GridPattern, provider: StatsProvider, algos: Vector[Algo]): Vector[GridCell] =
    algos.map(a => GridCell(gp, a, Trace.span("core.plan")(Planner.plan(gp.pattern, provider, a, gp.strategy))))

  private val threadBean =
    java.lang.management.ManagementFactory.getThreadMXBean.asInstanceOf[com.sun.management.ThreadMXBean]

  def engine(b: PlannedBranch, config: EngineConfig): CepEngine =
    if (b.plan.isLeft) new NfaEngine(b, config) else new TreeEngine(b, config)

  /** Runs every branch of the cell on its engine over the whole stream. */
  def run(cell: GridCell, events: ArraySeq[Event], countAlloc: Boolean = false): CellRun = {
    var nanos = 0L; var ev = 0L; var m = 0L; var pm = 0L; var peak = 0L; var buf = 0L; var lat = 0L
    var capped = false
    val tid = Thread.currentThread().getId
    val a0 = if (countAlloc) threadBean.getThreadAllocatedBytes(tid) else 0L
    cell.branches.foreach { b =>
      val e = engine(b, config)
      val t0 = System.nanoTime()
      val r = Trace.span("cep.run")(e.run(events))
      nanos += System.nanoTime() - t0
      ev += events.length; m += r.stats.matches; pm += r.stats.pmCreated
      peak += r.stats.peakLivePm; buf += r.stats.peakBuffered; lat += r.stats.latencyNanosSum
      capped ||= r.capped
    }
    val alloc = if (countAlloc) threadBean.getThreadAllocatedBytes(tid) - a0 else 0L
    CellRun(nanos, ev, m, pm, peak, buf, lat, capped, alloc)
  }

  /** Correctness gates on the timed passes: every pass reports the same
    * counters, and every uncapped plan of one pattern reports the same match
    * count. Under skip-till-next the match set depends on which of several
    * matches completed by one event is emitted first, so there the plans are
    * only counted, not compared; `mirrorCheck` gates that strategy instead.
    */
  def check(report: Report, cells: Vector[GridCell], passes: Vector[Vector[CellRun]]): Unit = {
    val first = passes.head
    cells.indices.foreach { i =>
      if (passes.exists(_(i).counts != first(i).counts))
        report.error(s"counters differ between passes for ${cells(i).label}")
    }
    val groups = cells.indices.groupBy(cells(_).gp).toVector.sortBy(_._2.head)
    val disagree = groups.filter { case (_, is) => is.filterNot(first(_).capped).map(first(_).matches).distinct.size > 1 }
    disagree.foreach { case (gp, is) =>
      val msg = s"plans disagree on ${gp.category.name}/${gp.strategyName} n=${gp.size} p${gp.pid}: " +
        is.map(i => s"${cells(i).algo.name}=${first(i).matches}${if (first(i).capped) "(capped)" else ""}").mkString(", ")
      if (gp.strategy == NextMatch) report.note(msg) else report.error(msg)
    }
    val next = groups.count(_._1.strategy == NextMatch)
    if (next > 0)
      report.note(s"skip-till-next patterns whose plans report different match counts: " +
        s"${disagree.count(_._1.strategy == NextMatch)} of $next")
  }

  /** Gate for skip-till-next: the tree engine running the left-deep mirror of
    * the DP-LD order plan reports the same match count as the NFA.
    */
  def mirrorCheck(report: Report, cells: Vector[GridCell], runs: Vector[CellRun], events: ArraySeq[Event]): Unit =
    cells.indices.filter(i => cells(i).gp.strategy == NextMatch && cells(i).algo == DP_LD).foreach { i =>
      val mirror = cells(i).copy(branches = cells(i).branches.map(b =>
        b.copy(plan = Right(TreePlan.leftDeep(b.plan.left.toOption.get)))))
      val m = run(mirror, events)
      if (!m.capped && !runs(i).capped && m.matches != runs(i).matches)
        report.error(s"tree mirror of ${cells(i).label} counts ${m.matches}, NFA ${runs(i).matches}")
    }

  /** Per cell, the fastest of the timed passes, with the lowest detection
    * latency of any pass. On a shared host other tenants only ever slow a pass
    * down, so the lowest time is the steadiest estimate of the engine's own
    * cost. Time and latency are taken separately because the pass with the
    * lowest total time is not always the one with the lowest latency, and the
    * match count the latency is divided by is the same in every pass.
    */
  def best(passes: Vector[Vector[CellRun]]): Vector[CellRun] =
    passes.head.indices.map { i =>
      val rs = passes.map(_(i))
      rs.minBy(_.nanos).copy(latNanosSum = rs.map(_.latNanosSum).min)
    }.toVector

  /** The paper's end-to-end engine metrics over the completed cells:
    * throughput, peak live partial matches and mean detection latency.
    */
  def endToEnd(report: Report, runs: Vector[CellRun]): Unit = {
    report.gmeanMetric("throughput_keps", runs.map(r => if (r.capped) Double.NaN else r.events * 1e6 / r.nanos), "Kev/s")
    report.metric("peak_live_pm", Stat.gmean(runs.filterNot(_.capped).map(_.peakLive.toDouble.max(1.0))), "PMs")
    report.gmeanMetric("latency_us",
      runs.map(r => if (r.capped || r.matches == 0) Double.NaN else r.latNanosSum / 1e3 / r.matches), "us")
  }

  /** Attempted and failed operations: one operation is one (pattern, planner)
    * detection; a capped run is a failed one.
    */
  def count(report: Report, cells: Vector[GridCell], runs: Vector[CellRun]): Unit = {
    report.attempted += cells.size
    report.failed += runs.count(_.capped)
    val capped = cells.indices.filter(runs(_).capped).map(i =>
      s"${cells(i).gp.category.name}/n=${cells(i).gp.size}/${cells(i).algo.name}")
    report.note(s"capped runs (failed operations): ${if (capped.isEmpty) "none" else capped.mkString(", ")}")
  }

  /** Time shares per category, strategy and plan family, and the costliest cells. */
  def shares(report: Report, cells: Vector[GridCell], runs: Vector[CellRun]): Unit = {
    val total = runs.map(_.nanos).sum.toDouble
    def share(key: GridCell => String): String =
      cells.indices.groupBy(i => key(cells(i))).toVector
        .map { case (k, is) => (k, is.map(runs(_).nanos).sum / total) }
        .sortBy(-_._2).map { case (k, s) => f"$k ${100 * s}%.1f%%" }.mkString(", ")
    report.note(f"engine time per pass ${total / 1e6}%.1f ms over ${cells.size} cells")
    report.note("time share by category: " + share(_.gp.category.name))
    report.note("time share by strategy: " + share(_.gp.strategyName))
    report.note("time share by plan family: " + share(_.family))
    report.note("time share by category and family: " + share(c => s"${c.gp.category.name}/${c.family}"))
    val top = cells.indices.sortBy(i => -runs(i).nanos).take(5)
    report.note("costliest cells: " + top.map(i => f"${cells(i).label} ${runs(i).nanos / 1e6}%.1f ms").mkString(", "))
  }

  /** Per-layer `cep.*` metrics: engine time split, counters and ratios. */
  def perLayer(report: Report, cells: Vector[GridCell], runs: Vector[CellRun], allocRuns: Vector[CellRun]): Unit = {
    def msWhere(p: GridCell => Boolean): Double =
      cells.indices.filter(i => p(cells(i))).map(runs(_).nanos).sum / 1e6
    report.metric("cep.nfa_ms", msWhere(_.algo.orderBased), "ms")
    report.metric("cep.tree_ms", msWhere(!_.algo.orderBased), "ms")
    Seq(SequenceCat -> "sequence", NegationCat -> "negation", ConjunctionCat -> "conjunction",
      KleeneCat -> "kleene", DisjunctionCat -> "disjunction").foreach { case (c, n) =>
      report.metric(s"cep.ms.$n", msWhere(_.gp.category == c), "ms")
    }
    Seq("any", "next", "contiguity").foreach(s => report.metric(s"cep.ms.$s", msWhere(_.gp.strategyName == s), "ms"))
    val events = runs.map(_.events).sum.toDouble
    val pm = runs.map(_.pmCreated).sum.toDouble
    val matches = runs.map(_.matches).sum.toDouble
    val nanos = runs.map(_.nanos).sum.toDouble
    report.metric("cep.events", events, "count")
    report.metric("cep.matches", matches, "count")
    report.metric("cep.pm_created", pm, "count")
    report.metric("cep.peak_buffered", runs.map(_.peakBuffered).maxOption.getOrElse(0L).toDouble, "count")
    report.metric("cep.capped_runs", runs.count(_.capped).toDouble, "count")
    report.metric("cep.match_per_kpm", if (pm == 0) 0 else 1000 * matches / pm, "ratio")
    report.metric("cep.ns_per_pm", if (pm == 0) 0 else nanos / pm, "ns")
    report.metric("cep.alloc_b_per_event",
      allocRuns.map(_.allocBytes).sum / allocRuns.map(_.events).sum.toDouble.max(1), "B")
  }
}

/** The engine grids: `grid-any` (the T1/T2 grid under skip-till-any) and
  * `grid-next` (skip-till-next on sequence, negation and Kleene patterns plus
  * sequences under strict contiguity, with T7's doubled window).
  */
object Grid {
  val sizes: Vector[Int] = Vector(3, 4, 5, 6, 7)

  /** Rate seed of every benchmark stream: the `repro.bench` world's seed. */
  val rateSeed = 97L

  val patternsPerCell = 3

  final case class Spec(shape: StreamShape, windowScale: Double, mix: Vector[(Category, String, Strategy)])

  val anySpec: Spec = Spec(StreamShape(20, 60.0, 1.0, 10.0, 1.0), 1.0,
    Category.all.map(c => (c, "any", AnyMatch: Strategy)))

  val nextSpec: Spec = Spec(StreamShape(20, 60.0, 1.0, 10.0, 1.0), 2.0,
    Vector(SequenceCat, NegationCat, KleeneCat).map(c => (c, "next", NextMatch: Strategy)) :+
      ((SequenceCat, "contiguity", Contiguity: Strategy)))

  /** The grid's patterns: `PatternGen.generate` per (category, size, index),
    * with the pattern seeds of the `repro.bench` grid. They are part of the
    * workload's definition and do not change with the benchmark seed.
    */
  def patterns(spec: Spec, provider: MeasuredStatsProvider): Vector[GridPattern] =
    for {
      (cat, sname, strat) <- spec.mix
      size <- sizes
      pid <- (0 until patternsPerCell).toVector
    } yield {
      val p0 = PatternGen.generate(cat, size, spec.shape.nTypes, provider, seed = 1000L * pid + size)
      val p = if (spec.windowScale == 1.0) p0 else Pattern(p0.root, p0.preds, p0.window * spec.windowScale)
      GridPattern(cat, size, pid, sname, strat, p)
    }

  final case class Setup(world: World, patterns: Vector[GridPattern], cells: Vector[GridCell],
                         streamMs: Double, statsMs: Double, patternMs: Double, planMs: Double)

  def setup(spec: Spec, seed: Long): Setup = {
    val t0 = System.nanoTime()
    val events = World.stream(spec.shape, rateSeed, seed)
    val t1 = System.nanoTime()
    val provider = World.measure(spec.shape, events)
    val t2 = System.nanoTime()
    val pats = patterns(spec, provider)
    val t3 = System.nanoTime()
    val cells = pats.flatMap(Engines.plan(_, provider, Algo.all))
    val t4 = System.nanoTime()
    Setup(World(spec.shape, events, provider), pats, cells,
      Stat.ms(t1 - t0), Stat.ms(t2 - t1), Stat.ms(t3 - t2), Stat.ms(t4 - t3))
  }

  /** Per (pattern, planner): EFREQ-cost / plan-cost, T5's plan-quality statistic. */
  def planQuality(cells: Vector[GridCell]): Vector[(Algo, Double)] = {
    val efreq = cells.filter(_.algo == EFREQ).map(c => c.gp -> c.cost).toMap
    cells.map(c => c.algo -> efreq(c.gp) / c.cost)
  }

  def run(spec: Spec, args: Args, report: Report): Unit = {
    val setups = Setups.repeat(report, args)(setup(spec, args.seed))
    val s = setups.last
    val events = ArraySeq.unsafeWrapArray(s.world.events)
    report.note(s"world: ${s.world.fingerprint}")
    report.note(s"grid: ${s.patterns.size} patterns x ${Algo.all.size} planners = ${s.cells.size} cells, " +
      s"window ${spec.windowScale} x ${spec.shape.window}, horizon ${spec.shape.horizon}")
    Setups.dataLayer(report, setups.map(x => (x.streamMs, x.statsMs, x.patternMs)))
    report.metric("core.plan_ms", Stat.median(setups.map(_.planMs)), "ms")

    val warm = Passes.warmUp(2, args.seconds * 0.4)(s.cells.foreach(Engines.run(_, events)))
    report.note("warm-up pass times [s]: " + warm.map(t => f"$t%.3f").mkString(", "))
    // Each timed pass runs the engines and then re-plans the grid, so both
    // samples spread over the same stretch of time.
    val timed = Passes.timed(args.seconds * (if (args.trace) 0.35 else 0.7), 3) {
      val runs = s.cells.map(Engines.run(_, events))
      val t0 = System.nanoTime(); s.patterns.foreach(Engines.plan(_, s.world.provider, Algo.all))
      (runs, (System.nanoTime() - t0) / 1e9)
    }
    val passes = timed.map(_._1)
    val planPasses = timed.map(_._2)
    report.note(s"timed passes: ${passes.size}")
    Planning.check(report, s.cells)
    Engines.check(report, s.cells, passes)
    val runs = Engines.best(passes)
    Engines.mirrorCheck(report, s.cells, runs, events)
    Engines.count(report, s.cells, runs)
    Engines.shares(report, s.cells, runs)
    if (!args.trace) {
      Engines.endToEnd(report, runs)
      report.metric("plan_s", planPasses.min, "s")
      report.metric("plan_quality", Stat.gmean(planQuality(s.cells).map(_._2)), "ratio")
    } else {
      val allocRuns = s.cells.map(Engines.run(_, events, countAlloc = true))
      Engines.perLayer(report, s.cells, runs, allocRuns)
      Planning.perLayer(report, s.cells, planQuality(s.cells))
      Tracing.compare(report, args) {
        Trace.span("workload") {
          s.patterns.foreach { gp =>
            Trace.span("pattern")(Engines.plan(gp, s.world.provider, Algo.all).foreach(Engines.run(_, events)))
          }
        }
      }
    }
  }
}
