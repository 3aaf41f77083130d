package repro.cep

import org.scalatest.funsuite.AnyFunSuite
import repro.core._
import EngineTestKit._
import scala.util.Random

/** The shared per-event path: type dispatch, deferred eviction from the
  * arrival ring, range reads of the event rings, release of expired partial
  * matches during scans, consumed-set pruning, the clock rule and the
  * input-order guard.
  */
class EngineFastPathSpec extends AnyFunSuite {

  /** About 90 % of the events have a type the pattern does not use, some of
    * them with a type id above every pattern type.
    */
  private def mostlyForeign(nPattern: Int, count: Int, horizon: Double, rnd: Random): Vector[Event] = {
    val foreign = Vector(nPattern, nPattern + 1, nPattern + 5, 64, 1000)
    Vector.tabulate(count) { _ =>
      val t = if (rnd.nextDouble() < 0.1) rnd.nextInt(nPattern) else foreign(rnd.nextInt(foreign.size))
      (t, rnd.nextDouble() * horizon, rnd.nextGaussian())
    }.sortBy(_._2).zipWithIndex.map { case ((t, ts, d), serial) => ev(t, ts, serial.toLong, d) }
  }

  /** The match set of a run whose Kleene candidate lists the cap never cut. */
  private def uncut(r: RunResult): Set[Vector[Vector[Long]]] = {
    assert(r.stats.kleeneTruncated == 0)
    matchSet(r)
  }

  private def agreeOnMostlyForeign(seed: Int, withNeg: Boolean, withKl: Boolean): Unit = {
    val rnd = new Random(seed)
    for (iter <- 1 to 6) {
      val n = 3 + rnd.nextInt(2)
      val sp = randomPattern(rnd, n, withNeg, withKl)
      // ~3 pattern events of each type per window; over 2048 events, so the
      // 1024-event sweep runs too.
      val s = mostlyForeign(n, 2500, 2500 * 0.1 * 1.5 / (3.0 * n), rnd)
      val posN = sp.positives.size
      val oracle = bruteForce(orderBranch(sp, (0 until posN).toVector), s)
      assert(oracle.nonEmpty, s"iter=$iter sp=$sp: the stream should hold matches")
      for (order <- (0 until posN).toVector.permutations)
        assert(uncut(runNfa(sp, order, s)) == oracle, s"iter=$iter order=$order sp=$sp")
      for (t <- PlanOracles.enumerate((0 until posN).toVector))
        assert(uncut(runTree(sp, t, s)) == oracle, s"iter=$iter tree=$t sp=$sp")
    }
  }

  test("mostly foreign types: sequences match the brute-force oracle on both engines") {
    agreeOnMostlyForeign(51, withNeg = false, withKl = false)
  }

  test("mostly foreign types: negation matches the brute-force oracle on both engines") {
    agreeOnMostlyForeign(52, withNeg = true, withKl = false)
  }

  test("mostly foreign types: Kleene matches the brute-force oracle on both engines") {
    agreeOnMostlyForeign(53, withNeg = false, withKl = true)
  }

  test("the live counter equals a recount of held partial matches, every strategy") {
    val rnd = new Random(54)
    for (strategy <- Seq[Strategy](AnyMatch, NextMatch, Contiguity); iter <- 1 to 8) {
      val n = 2 + rnd.nextInt(3)
      val sp = randomPattern(rnd, n, withNeg = iter % 3 == 0, withKl = iter % 4 == 0)
      val s = randomStream(n + 1, 3000, 300.0, rnd)
      val posN = sp.positives.size
      val order = rnd.shuffle((0 until posN).toVector)
      val engines = Seq(
        new TreeEngine(orderBranch(sp, order, strategy)),
        new TreeEngine(treeBranch(sp, TreePlan.leftDeep(OrderPlan(order)), strategy)),
        new TreeEngine(treeBranch(sp, PlanOracles.enumerate((0 until posN).toVector).last, strategy)),
      )
      engines.foreach { e =>
        e.run(s)
        assert(e.liveNow == e.heldLive, s"$strategy iter=$iter ${e.getClass.getSimpleName} sp=$sp")
      }
    }
  }

  test("skip-till-next: the consumed set stays flat on a long stream") {
    val seq2 = SimplePattern(SEQ, elems(2), Vector.empty, 1.0)
    def consumedAfter(len: Int): Seq[(Int, Long)] = {
      val s = (0 until len).map(i => ev(i % 3 % 2, i * 0.05, i.toLong))
      val engines = Seq(
        new TreeEngine(orderBranch(seq2, Vector(1, 0), NextMatch), EngineConfig(collectMatches = false)),
        new TreeEngine(treeBranch(seq2, NodePlan(LeafPlan(0), LeafPlan(1)), NextMatch),
          EngineConfig(collectMatches = false)),
      )
      engines.map { e =>
        val r = e.run(s)
        assert(r.stats.matches > len / 4)
        (e.consumedSize, r.stats.matches)
      }
    }
    // Within W = 1.0 there are about 20 events; unpruned, the set would hold
    // every matched event (two thirds of the stream).
    for ((size, matches) <- consumedAfter(2000) ++ consumedAfter(20000))
      assert(size <= 25, s"consumed set holds $size serials after $matches matches")
  }

  test("every match's last event belongs to an element that reads the clock, every strategy") {
    val rnd = new Random(56)
    val matchesBy = scala.collection.mutable.Map.empty[(String, Strategy), Long].withDefaultValue(0L)
    for (iter <- 1 to 12) {
      val n = 3 + rnd.nextInt(2)
      val (kind, sp) = iter % 3 match {
        case 0 => ("SEQ with negation", randomPattern(rnd, n, withNeg = true, withKl = false))
        case 1 => ("SEQ with Kleene", randomPattern(rnd, n, withNeg = false, withKl = true).copy(op = SEQ))
        case _ => ("AND", randomPattern(rnd, n, withNeg = false, withKl = rnd.nextBoolean()).copy(op = AND))
      }
      // About three events of each type per window.
      val s = randomStream(n + 1, 200, 200 * sp.window / (3.0 * (n + 1)), rnd)
      val posN = sp.positives.size
      val branches = (0 until posN).toVector.permutations.map(o => orderBranch(sp, o, _: Strategy)) ++
        PlanOracles.enumerate((0 until posN).toVector).map(t => treeBranch(sp, t, _: Strategy))
      for (branchAt <- branches; strategy <- Seq[Strategy](AnyMatch, NextMatch, Contiguity)) {
        val branch = branchAt(strategy)
        val engine = new TreeEngine(branch)
        val clocked = (0 until posN).filter(engine.readsClockAt)
        if (sp.op == AND) assert(clocked == (0 until posN), s"$kind sp=$sp")
        else assert(clocked == Planner.lastTemporalElem(branch.positive).toSeq, s"$kind sp=$sp")
        val r = engine.run(s)
        for (m <- r.matches) {
          val last = m.byElem.indices.maxBy(m.byElem(_).max)
          assert(engine.readsClockAt(last), s"$kind $strategy plan=${branch.plan} match=${m.byElem} sp=$sp")
        }
        matchesBy((kind, strategy)) += r.stats.matches
      }
    }
    for (kind <- Seq("SEQ with negation", "SEQ with Kleene", "AND"); strategy <- Seq(AnyMatch, NextMatch, Contiguity))
      assert(matchesBy((kind, strategy)) > 0, s"$kind $strategy: the streams should hold matches")
  }

  test("skip-till-next: the arrival ring grows while wrapped; peak buffered and consumed set are exact") {
    // SEQ(T0, NOT T1, T2) with W = 1, plus foreign events. The density of
    // pattern events per window doubles every four windows from about 10 to
    // about 320, then falls back to 10: the ring (16 entries at first) wraps
    // before it doubles five times, and drains again at the end.
    val sp = SimplePattern(SEQ, elems(3, negAt = Set(1)), Vector.empty, 1.0)
    val rnd = new Random(57)
    val phases = (0 to 5).map(k => 10 << k) :+ 10
    val s = phases.zipWithIndex.flatMap { case (perWindow, p) =>
      Seq.fill(4 * perWindow * 10 / 9) {
        val r = rnd.nextDouble()
        val t = if (r < 0.45) 0 else if (r < 0.5) 1 else if (r < 0.9) 2 else 7
        (t, 4.0 * (p + rnd.nextDouble()))
      }
    }.sortBy(_._2).zipWithIndex.map { case ((t, ts), serial) => ev(t, ts, serial.toLong) }
    val pattern = s.filter(_.typeId != 7)
    // Eviction runs at pattern events, so the buffered count peaks at one.
    val bruteForcePeak = pattern.indices.map(p => (0 to p).count(q => pattern(q).ts >= pattern(p).ts - 1.0)).max
    assert(bruteForcePeak > 256)
    val lastCutoff = pattern.last.ts - 1.0
    val tsOf = s.map(e => e.serial -> e.ts).toMap
    val branches = Seq(orderBranch(sp, Vector(0, 1), NextMatch), treeBranch(sp, NodePlan(LeafPlan(1), LeafPlan(0)), NextMatch))
    for (branch <- branches) {
      val engine = new TreeEngine(branch)
      val r = engine.run(s)
      assert(r.stats.peakBuffered == bruteForcePeak, s"plan=${branch.plan}")
      assert(r.stats.matches > 100, s"plan=${branch.plan}")
      // Every matched event is consumed; the set keeps the in-window ones.
      val inWindow = r.matches.flatMap(_.byElem.flatten).filter(tsOf(_) >= lastCutoff).toSet
      assert(engine.consumedSize == inWindow.size, s"plan=${branch.plan}")
      assert(engine.consumedSize <= 2 * phases.last, s"plan=${branch.plan}")
    }
  }

  test("the arrival ring agrees with a reference queue under random operations") {
    val rnd = new Random(58)
    val ring = new ArrivalRing
    val ref = scala.collection.mutable.Queue.empty[(Double, Int, Long)]
    for (step <- 1 to 20000) {
      // Drift between filling and draining, so the ring grows while wrapped.
      val appendShare = if ((step / 2000) % 2 == 0) 0.6 else 0.45
      if (ref.isEmpty || rnd.nextDouble() < appendShare) {
        val x = (rnd.nextDouble(), rnd.nextInt(8), rnd.nextLong())
        ring.append(x._1, x._2, x._3); ref.enqueue(x)
      } else {
        assert((ring.headTs, ring.headSlot, ring.headSerial) == ref.head, s"step $step")
        ring.removeHead(); ref.dequeue()
      }
      assert(ring.size == ref.size)
    }
  }

  test("tie-heavy streams: every plan matches the brute-force oracle under skip-till-any and contiguity") {
    // Timestamps on a grid of a sixth of the window, so most events share
    // their timestamp with others and the ends of the range reads tie.
    val rnd = new Random(60)
    val kinds = Vector("SEQ", "SEQ with negation", "SEQ with Kleene", "AND chained by serial successors")
    val matchesBy = scala.collection.mutable.Map.empty[(String, Strategy), Int].withDefaultValue(0)
    for (iter <- 1 to 40) {
      val kind = kinds(iter % kinds.size)
      val n = 3 + iter / kinds.size % 2 // contiguity matches come mostly from n = 3
      val withNeg = kind == "SEQ with negation"
      val sp = kind match {
        case "AND chained by serial successors" =>
          // No `TsLess`: events of equal timestamps match, at both range ends.
          val p = randomPattern(rnd, n, withNeg = false, withKl = false)
          p.copy(op = AND, preds = p.preds ++ (0 until n - 1).map(i => Pred(i, i + 1, SerialSucc)))
        case _ => randomPattern(rnd, n, withNeg, withKl = kind == "SEQ with Kleene").copy(op = SEQ)
      }
      val step = sp.window / 6
      // Pattern types only, about three events of each per window, so that
      // contiguous runs of the elements' types occur.
      val s = randomStream(n, 300, 300 * sp.window / (3.0 * n), rnd)
        .map(e => e.copy(ts = math.floor(e.ts / step) * step))
      assert(s.groupBy(_.ts).values.filter(_.size > 1).map(_.size).sum > s.size / 2,
        s"iter=$iter: most events should share their timestamp")
      val posN = sp.positives.size
      for (strategy <- Seq[Strategy](AnyMatch, Contiguity)) {
        val oracle = bruteForce(orderBranch(sp, (0 until posN).toVector, strategy), s)
        // Under contiguity the serial-successor predicates of a negated
        // element's neighbours go to the negated element, so matches can share
        // events and consumption keeps some of them: each is still a match.
        def agrees(r: RunResult) =
          if (withNeg && strategy == Contiguity) uncut(r).subsetOf(oracle) else uncut(r) == oracle
        for (order <- (0 until posN).toVector.permutations)
          assert(agrees(runNfa(sp, order, s, strategy)), s"$strategy iter=$iter order=$order sp=$sp")
        for (t <- PlanOracles.enumerate((0 until posN).toVector))
          assert(agrees(runTree(sp, t, s, strategy)), s"$strategy iter=$iter tree=$t sp=$sp")
        matchesBy((kind, strategy)) += matchSet(runNfa(sp, (0 until posN).toVector, s, strategy)).size
      }
    }
    for (kind <- kinds; strategy <- Seq(AnyMatch, Contiguity))
      assert(matchesBy((kind, strategy)) > 0, s"$kind $strategy: the streams should hold matches")
  }

  test("the event ring agrees with a reference queue, also after growing while wrapped") {
    val rnd = new Random(59)
    val ring = new EventRing
    val ref = scala.collection.mutable.Queue.empty[Event]
    var t = 0.0
    var serial = 0L
    def append(): Unit = {
      if (rnd.nextDouble() < 0.4) t += 0.25 * (1 + rnd.nextInt(3)) // else a tie
      val e = ev(rnd.nextInt(4), t, serial)
      serial += 1
      ring.append(e); ref.enqueue(e)
    }
    def removeHead(): Unit = { ring.removeHead(); ref.dequeue() }
    def agrees(step: Int): Unit = {
      assert(ring.size == ref.size, s"step $step")
      for (i <- ref.indices) assert((ring(i) eq ref(i)) && ring.ts(i) == ref(i).ts, s"step $step index $i")
      val probes = ref.map(_.ts).distinct.flatMap(x => Seq(x - 0.125, x, x + 0.125)) ++
        Seq(Double.NegativeInfinity, Double.PositiveInfinity)
      for (p <- probes) {
        val linear = ref.indexWhere(_.ts >= p)
        assert(ring.firstAtOrAfter(p) == (if (linear < 0) ref.size else linear), s"step $step probe $p")
      }
    }
    // Fill the 16 initial entries, drain ten and refill them: the ring is full
    // with its head in the middle, so the next append grows it while wrapped.
    (1 to 16).foreach(_ => append())
    (1 to 10).foreach(_ => removeHead())
    (1 to 10).foreach(_ => append())
    agrees(0)
    append()
    agrees(0)
    for (step <- 1 to 20000) {
      // Drift between filling and draining, so the ring wraps, grows and empties.
      val appendShare = if ((step / 2000) % 2 == 0) 0.6 else 0.45
      if (ref.isEmpty || rnd.nextDouble() < appendShare) append()
      else {
        assert(ring(0) eq ref.head, s"step $step")
        removeHead()
      }
      assert(ring.size == ref.size, s"step $step")
      if (step % 97 == 0) agrees(step)
    }
    while (ref.nonEmpty) removeHead()
    agrees(20001)
  }

  /** Streams that break the (ts, serial) order at their last event. */
  private val unsorted = Seq(
    Seq(ev(0, 1.0, 0), ev(7, 2.0, 1), ev(1, 1.5, 2)), // earlier ts, after a foreign event
    Seq(ev(0, 1.0, 5), ev(1, 1.0, 4)),                // same ts, lower serial
  )

  private def assertRejected(run: Seq[Event] => RunResult): Unit =
    for (s <- unsorted) {
      val msg = intercept[IllegalArgumentException](run(s)).getMessage
      assert(msg.contains(s"serial ${s.last.serial})") && msg.contains(s"serial ${s(s.size - 2).serial})"), msg)
    }

  test("NFA engine rejects events out of (ts, serial) order, naming both events") {
    assertRejected(runNfa(SimplePattern(SEQ, elems(2), Vector.empty, 1.0), Vector(0, 1), _))
  }

  test("tree engine rejects events out of (ts, serial) order, naming both events") {
    assertRejected(runTree(SimplePattern(SEQ, elems(2), Vector.empty, 1.0), NodePlan(LeafPlan(0), LeafPlan(1)), _))
  }

  test("the consumed-serial set agrees with a reference set under random operations") {
    val rnd = new Random(55)
    val set = new SerialSet
    val ref = scala.collection.mutable.HashSet.empty[Long]
    for (_ <- 1 to 20000) {
      // Keys cluster like in-window serials, so probe runs collide and wrap.
      val k = rnd.nextInt(300).toLong - 20
      rnd.nextInt(3) match {
        case 0 => set += k; ref += k
        case 1 => set -= k; ref -= k
        case _ => assert(set.contains(k) == ref.contains(k), s"key $k")
      }
      assert(set.size == ref.size)
    }
    assert((-20L until 280L).forall(k => set.contains(k) == ref.contains(k)))
  }
}
