package repro.cep

import org.scalatest.funsuite.AnyFunSuite
import repro.core._
import EngineTestKit._

/** Engine edge cases: eviction, counters, windows at boundaries, empty inputs. */
class EngineEdgeCaseSpec extends AnyFunSuite {

  private val seq2 = SimplePattern(SEQ, elems(2), Vector.empty, 1.0)
  private val tree2: TreePlan = NodePlan(LeafPlan(0), LeafPlan(1))

  test("empty stream produces no matches and zeroed counters") {
    val r = runNfa(seq2, Vector(0, 1), Seq.empty)
    assert(r.stats.matches == 0 && r.stats.pmCreated == 0 && r.stats.events == 0)
    val t = runTree(seq2, tree2, Seq.empty)
    assert(t.stats.matches == 0 && t.stats.pmCreated == 0)
  }

  test("window boundary is inclusive (|ts diff| <= W)") {
    val s = Seq(ev(0, 1.0, 0), ev(1, 2.0, 1)) // exactly W apart
    assert(runNfa(seq2, Vector(0, 1), s).stats.matches == 1)
    assert(runTree(seq2, tree2, s).stats.matches == 1)
    val s2 = Seq(ev(0, 1.0, 0), ev(1, 2.0 + 1e-9, 1))
    assert(runNfa(seq2, Vector(0, 1), s2).stats.matches == 0)
  }

  test("old events are evicted: a long stream does not accumulate buffers") {
    val s = (0 until 5000).map(i => ev(i % 2, i * 0.1, i.toLong))
    val r = runNfa(seq2, Vector(0, 1), s, config = EngineConfig(collectMatches = false))
    // within W=1.0 there are ~10 events; buffers must stay near that
    assert(r.stats.peakBuffered < 40, s"peakBuffered=${r.stats.peakBuffered}")
    assert(r.stats.matches > 0)
  }

  test("live partial matches are bounded by eviction, independent of stream length") {
    // An expired partial match is released when a scan of its list passes it,
    // or by the sweep every 1024 events for lists no scan reaches, so the
    // bound is window content + at most one sweep interval of stale entries —
    // crucially it must NOT grow with the stream length.
    def peak(len: Int): Long = {
      val s = (0 until len).map(i => ev(i % 2, i * 0.05, i.toLong))
      runNfa(seq2, Vector(1, 0), s, config = EngineConfig(collectMatches = false)).stats.peakLivePm
    }
    val p4k = peak(4000)
    val p16k = peak(16000)
    assert(p4k < 1100, s"peak=$p4k should be ~sweep interval, not stream size")
    assert(p16k <= p4k * 2, s"peak must not scale with stream length: $p4k -> $p16k")
    val rt = runTree(seq2, tree2, (0 until 4000).map(i => ev(i % 2, i * 0.05, i.toLong)),
      config = EngineConfig(collectMatches = false))
    assert(rt.stats.peakLivePm < 1100, s"tree peak=${rt.stats.peakLivePm}")
  }

  test("latency accounting: emitted matches record positive latency") {
    val s = Seq(ev(0, 1, 0), ev(1, 1.5, 1))
    val r = runNfa(seq2, Vector(0, 1), s)
    assert(r.stats.matches == 1)
    assert(r.stats.latencyNanosSum > 0)
    assert(r.stats.avgLatencyMicros > 0)
  }

  test("throughput helper is consistent with events and wall time") {
    val st = RunStats(1000, 1, 1, 1, 1, 500L * 1000 * 1000, 0)
    assert(math.abs(st.throughput - 2000.0) < 1e-6)
    assert(RunStats(0, 0, 0, 0, 0, 0, 0).throughput == 0.0)
  }

  test("identical timestamps: SEQ requires strict ts order, AND does not") {
    val s = Seq(ev(0, 1.0, 0), ev(1, 1.0, 1))
    assert(runNfa(seq2, Vector(0, 1), s).stats.matches == 0)
    val and2 = SimplePattern(AND, elems(2), Vector.empty, 1.0)
    assert(runNfa(and2, Vector(0, 1), s).stats.matches == 1)
  }

  test("a reversed plan on a reversed-rate stream creates fewer partial matches") {
    // 50 As then 1 B: plan starting at B creates at most 1 chain root.
    val s = ((0 until 50).map(i => ev(0, i * 0.01, i.toLong)) :+ ev(1, 0.6, 50L))
    val fwd = runNfa(seq2, Vector(0, 1), s, config = EngineConfig(collectMatches = false))
    val rev = runNfa(seq2, Vector(1, 0), s, config = EngineConfig(collectMatches = false))
    assert(fwd.stats.matches == rev.stats.matches)
    assert(rev.stats.pmCreated < fwd.stats.pmCreated)
  }

  test("tree engine counts leaf and internal instances consistently") {
    // Only the left leaf of a leaf–leaf pair creates instances; every other
    // leaf is read in place. A pair: [a] and the root match => 2 created.
    val r = runTree(seq2, tree2, Seq(ev(0, 1, 0), ev(1, 1.2, 1)))
    assert(r.stats.pmCreated == 2 && r.stats.matches == 1)
  }

  test("NFA engine level counters: chain of three with one combination") {
    // As an order plan or its left-deep tree: [a], [a,b] and the root match
    // [a,b,c] => 3 created, 1 match.
    val seq3 = SimplePattern(SEQ, elems(3), Vector.empty, 10.0)
    val s3 = Seq(ev(0, 1, 0), ev(1, 2, 1), ev(2, 3, 2))
    for (r3 <- Seq(runNfa(seq3, Vector(0, 1, 2), s3), runTree(seq3, TreePlan.leftDeep(OrderPlan(Vector(0, 1, 2))), s3)))
      assert(r3.stats.pmCreated == 3 && r3.stats.matches == 1)
  }
}
