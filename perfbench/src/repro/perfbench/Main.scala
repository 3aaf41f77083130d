package repro.perfbench

import java.nio.file.Paths
import repro.core._
import scala.collection.mutable

/** Command line of one benchmark JVM. `part` names the part of a workload
  * that runs as a JVM of its own; `mainStart` is the time `main` was entered:
  * the first set-up is timed from there.
  */
final case class Args(workload: String, part: String, seed: Long, seconds: Double, trace: Boolean,
                      traceOut: String, mainStart: Long)

/** Repeated set-up: `setup_s` is the median of three set-ups, the first timed
  * from `main` entry, so that work moved into set-up shows.
  */
object Setups {
  val repeats = 3

  def repeat[A](report: Report, args: Args)(body: => A): Vector[A] = {
    val times = mutable.ArrayBuffer.empty[Double]
    val out = (0 until repeats).map { k =>
      val t0 = if (k == 0) args.mainStart else System.nanoTime()
      val a = body
      times += (System.nanoTime() - t0) / 1e9
      a
    }.toVector
    report.metric("setup_s", Stat.median(times.toSeq), "s")
    report.note("set-up times [s]: " + times.map(t => f"$t%.3f").mkString(", "))
    out
  }

  /** `repro.data` layer times, medians over the set-ups: stream generation,
    * `MeasuredStatsProvider` construction and `PatternGen.generate`.
    */
  def dataLayer(report: Report, parts: Vector[(Double, Double, Double)]): Unit = {
    report.metric("data.stream_ms", Stat.median(parts.map(_._1)), "ms")
    report.metric("data.stats_ms", Stat.median(parts.map(_._2)), "ms")
    report.metric("data.patterngen_ms", Stat.median(parts.map(_._3)), "ms")
  }
}

/** Planner gates and per-layer `core.*` metrics of a set of planned cells. */
object Planning {

  /** T5's invariants, per pattern: DP-LD costs no more than any order
    * heuristic, and DP-B no more than ZSTREAM and ZSTREAM-ORD.
    */
  def check(report: Report, cells: Vector[GridCell]): Unit =
    cells.groupBy(_.gp).foreach { case (gp, cs) =>
      val cost = cs.map(c => c.algo -> c.cost).toMap
      def notAbove(best: Algo, others: Seq[Algo]): Unit = cost.get(best).foreach { b =>
        others.filter(a => cost.get(a).exists(_ < b * (1 - 1e-9))).foreach { a =>
          report.error(s"${gp.category.name}/${gp.strategyName} n=${gp.size} p${gp.pid}: " +
            s"${best.name} cost $b above ${a.name} cost ${cost(a)}")
        }
      }
      notAbove(DP_LD, Vector(TRIVIAL, EFREQ, GREEDY, II_RANDOM, II_GREEDY))
      notAbove(DP_B, Vector(ZSTREAM, ZSTREAM_ORD))
    }

  def perLayer(report: Report, cells: Vector[GridCell], quality: Vector[(Algo, Double)]): Unit = {
    Algo.all.foreach { a =>
      val sel = cells.filter(_.algo == a)
      report.metric(s"core.gen_ms.${a.name}", sel.map(_.branches.map(_.genNanos).sum).sum / 1e6, "ms")
      report.metric(s"core.cost_ratio.${a.name}", Stat.gmean(quality.filter(_._1 == a).map(_._2)), "ratio")
    }
    report.metric("core.gen_ms.max", cells.map(_.branches.map(_.genNanos).sum).maxOption.getOrElse(0L) / 1e6, "ms")
  }
}

/** The traced run: alternates untraced and traced passes of the same work,
  * reports each span's self time per pass and the tracing overhead (fastest
  * traced pass minus fastest untraced pass), and writes the spans out.
  */
object Tracing {
  def compare(report: Report, args: Args)(pass: => Unit): Unit = {
    val untraced = mutable.ArrayBuffer.empty[Double]
    val traced = mutable.ArrayBuffer.empty[Double]
    def time(on: Boolean): Double = {
      Trace.enabled = on
      val t0 = System.nanoTime(); pass; val dt = (System.nanoTime() - t0) / 1e6
      Trace.enabled = false
      dt
    }
    val start = System.nanoTime()
    while (traced.size < 2 || (System.nanoTime() - start) / 1e9 < args.seconds * 0.35) {
      untraced += time(on = false)
      traced += time(on = true)
    }
    val n = traced.size
    report.metric("trace.untraced_ms", untraced.min, "ms")
    report.metric("trace.traced_ms", traced.min, "ms")
    report.metric("trace.overhead_ms", traced.min - untraced.min, "ms")
    report.metric("trace.spans", Trace.count.toDouble / n, "count")
    Trace.selfMs.foreach { case (name, ms) => report.metric(s"self_ms.$name", ms / n, "ms") }
    Trace.write(Paths.get(args.traceOut))
    report.note(s"trace: $n traced passes, ${Trace.count} spans written to ${args.traceOut}")
  }
}

/** Benchmark entry point. Prints notes and metric lines, then one JSON line
  * with every metric the run measured; `run.py` selects the reported ones.
  */
object Main {
  def main(argv: Array[String]): Unit = {
    val mainStart = System.nanoTime()
    val kv = argv.grouped(2).collect { case Array(k, v) if k.startsWith("--") => k.drop(2) -> v }.toMap
    val args = Args(kv("workload"), kv.getOrElse("part", "all"), kv("seed").toLong, kv("seconds").toDouble,
      kv.getOrElse("trace", "0") == "1", kv.getOrElse("trace-out", "trace.jsonl"), mainStart)
    val report = new Report
    report.note(s"workload=${args.workload} part=${args.part} seed=${args.seed} seconds=${args.seconds} trace=${args.trace}")
    report.note(Jvm.describe)
    args.workload match {
      case "grid-any"        => Grid.run(Grid.anySpec, args, report)
      case "grid-next"       => Grid.run(Grid.nextSpec, args, report)
      case "spark-segmented" => SparkSegmented.run(args, report)
      case other             => throw new IllegalArgumentException(s"unknown workload $other")
    }
    report.metric("jvm.gc_ms", Jvm.gcMillis.toDouble, "ms")
    report.notes.foreach(n => println(s"# $n"))
    report.errors.foreach(e => println(s"! $e"))
    report.metrics.foreach { case (k, (v, u)) => println(f"$k%-28s $v%16.4f $u") }
    println(report.json)
  }
}
