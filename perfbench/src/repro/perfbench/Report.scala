package repro.perfbench

import java.lang.management.ManagementFactory
import scala.collection.mutable
import scala.jdk.CollectionConverters._

/** Metrics, notes and the correctness verdict of one benchmark run. */
final class Report {
  val metrics: mutable.LinkedHashMap[String, (Double, String)] = mutable.LinkedHashMap.empty
  /** Per-cell values behind a geometric-mean metric, NaN where a cell is left
    * out, so that `run.py` can take each cell's best over the repeats of a part.
    */
  val cells: mutable.LinkedHashMap[String, Vector[Double]] = mutable.LinkedHashMap.empty
  val notes: mutable.ArrayBuffer[String] = mutable.ArrayBuffer.empty
  val errors: mutable.ArrayBuffer[String] = mutable.ArrayBuffer.empty
  var attempted: Long = 0
  var failed: Long = 0

  def metric(name: String, value: Double, unit: String): Unit = metrics(name) = (value, unit)

  /** A metric that is the geometric mean of per-cell values; NaN leaves a cell out. */
  def gmeanMetric(name: String, perCell: Vector[Double], unit: String): Unit = {
    cells(name) = perCell
    metric(name, Stat.gmean(perCell.filterNot(_.isNaN)), unit)
  }
  def note(s: String): Unit = notes += s
  def error(s: String): Unit = errors += s
  def correct: Boolean = errors.isEmpty

  /** The result line `run.py` reads: verdict, operation counts, metrics and
    * per-cell values.
    */
  def json: String = {
    def num(v: Double): String = if (v.isNaN || v.isInfinite) "null" else java.lang.Double.toString(v)
    val ms = metrics.map { case (k, (v, u)) => s""""$k": {"value": ${num(v)}, "unit": "$u"}""" }
    val cs = cells.map { case (k, vs) => s""""$k": [${vs.map(num).mkString(", ")}]""" }
    s"""{"correct": $correct, "attempted": $attempted, "failed": $failed, "metrics": {${ms.mkString(", ")}}, """ +
      s""""cells": {${cs.mkString(", ")}}}"""
  }
}

object Stat {
  def gmean(xs: Iterable[Double]): Double = {
    val pos = xs.filter(_ > 0)
    if (pos.isEmpty) 0.0 else math.exp(pos.iterator.map(math.log).sum / pos.size)
  }

  def median(xs: Seq[Double]): Double = {
    val s = xs.sorted
    if (s.isEmpty) Double.NaN
    else if (s.size % 2 == 1) s(s.size / 2)
    else (s(s.size / 2 - 1) + s(s.size / 2)) / 2
  }

  def ms(nanos: Double): Double = nanos / 1e6
}

/** Warm-up and timed repetition of one benchmark pass. */
object Passes {

  /** Runs `pass` until its time stops falling: after at least `minPasses`,
    * warm-up ends at the first pass that is not 3 % faster than the best pass
    * before it, or once `maxSeconds` are spent. Returns the warm-up pass times
    * in seconds.
    */
  def warmUp(minPasses: Int, maxSeconds: Double)(pass: => Unit): Vector[Double] = {
    val times = mutable.ArrayBuffer.empty[Double]
    val start = System.nanoTime()
    var done = false
    while (!done) {
      val t0 = System.nanoTime(); pass; times += (System.nanoTime() - t0) / 1e9
      val n = times.size
      val stopped = n >= minPasses && times(n - 1) > 0.97 * times.init.min
      done = stopped || (System.nanoTime() - start) / 1e9 >= maxSeconds
    }
    times.toVector
  }

  /** Repeats `pass` for `seconds` of wall time, at least `minPasses` times. */
  def timed[A](seconds: Double, minPasses: Int)(pass: => A): Vector[A] = {
    val out = mutable.ArrayBuffer.empty[A]
    val start = System.nanoTime()
    while (out.size < minPasses || (System.nanoTime() - start) / 1e9 < seconds) out += pass
    out.toVector
  }
}

/** JVM-wide counters read around timed sections. */
object Jvm {
  private val gcBeans = ManagementFactory.getGarbageCollectorMXBeans.asScala.toVector

  def gcMillis: Long = gcBeans.map(_.getCollectionTime).sum

  /** Cores, JVM and its flags: recorded with every run. */
  def describe: String = {
    val rt = ManagementFactory.getRuntimeMXBean
    s"cores=${Runtime.getRuntime.availableProcessors} jvm=${rt.getVmName} ${rt.getVmVersion} " +
      s"gc=${gcBeans.map(_.getName).mkString("+")} heap_max_mb=${Runtime.getRuntime.maxMemory >> 20} " +
      s"flags=${rt.getInputArguments.asScala.filterNot(_.startsWith("--add-opens")).mkString(" ")}"
  }
}
