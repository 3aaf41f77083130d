package repro.perfbench

import java.nio.file.{Files, Path}
import scala.collection.mutable

/** In-memory span recorder for the traced run. With tracing off, `span` only
  * runs its body. Spans are kept in memory and written out once, at the end.
  */
object Trace {
  final case class Span(id: Int, parent: Int, name: String, start: Long, end: Long)

  @volatile var enabled: Boolean = false
  private val spans = mutable.ArrayBuffer.empty[Span]
  private var stack: List[Int] = Nil
  private var nextId = 0

  def span[A](name: String)(body: => A): A =
    if (!enabled) body
    else {
      val id = nextId; nextId += 1
      val parent = stack.headOption.getOrElse(-1)
      stack = id :: stack
      val t0 = System.nanoTime()
      try body
      finally {
        val t1 = System.nanoTime()
        stack = stack.tail
        spans += Span(id, parent, name, t0, t1)
      }
    }

  def count: Int = spans.size

  /** Self time per span name, in ms: each span's duration minus the time its
    * direct children cover.
    */
  def selfMs: Map[String, Double] = {
    val childNanos = mutable.HashMap.empty[Int, Long].withDefaultValue(0L)
    spans.foreach(s => if (s.parent >= 0) childNanos(s.parent) += s.end - s.start)
    spans.groupBy(_.name).map { case (name, ss) =>
      name -> ss.map(s => (s.end - s.start - childNanos(s.id)).toDouble).sum / 1e6
    }
  }

  /** Writes every span as one JSON object per line. */
  def write(path: Path): Unit = {
    Files.createDirectories(path.getParent)
    val sb = new StringBuilder
    spans.sortBy(_.start).foreach { s =>
      sb ++= s"""{"id":${s.id},"parent":${s.parent},"name":"${s.name}","start_ns":${s.start},"end_ns":${s.end}}\n"""
    }
    Files.write(path, sb.toString.getBytes("UTF-8"))
  }
}
