package repro.spark

import repro.SparkSpec
import repro.core._
import repro.data._

/** Distributed segmented execution with the unary operators: negation and
  * Kleene closure must survive segmentation unchanged (the negated-event and
  * KL buffers travel with the segment because every match — and everything in
  * its window — fits inside one extended segment).
  */
class SegmentedUnarySpec extends SparkSpec {

  private lazy val cfg = StockConfig(nTypes = 5, horizon = 60.0, rateMin = 1.0, rateMax = 5.0, seed = 71)
  private lazy val events = StockData.events(cfg)
  private lazy val df = StockData.streamDF(spark, events).cache()
  private lazy val provider = StockData.provider(df, cfg)

  test("segmented negation run equals the driver-side run") {
    val sp = SimplePattern(SEQ,
      Vector(Elem(0, "T0"), Elem(1, "T1", negated = true), Elem(2, "T2")),
      Vector.empty, 1.0)
    val branch = Planner.planSimple(sp, provider, DP_LD)
    val local = SegmentedRunner.runLocal(events, branch).map(_.byElem).toSet
    val dist = SegmentedRunner.run(spark, df, branch).collect()
      .map(m => m.serials.map(_.toVector).toVector).toSet
    assert(dist == local)
    assert(local.nonEmpty)
  }

  test("segmented Kleene run equals the driver-side run") {
    val sp = SimplePattern(SEQ,
      Vector(Elem(3, "T3"), Elem(4, "T4", kleene = true)),
      Vector.empty, 1.0)
    val branch = Planner.planSimple(sp, provider, GREEDY)
    val local = SegmentedRunner.runLocal(events, branch).map(_.byElem).toSet
    val dist = SegmentedRunner.run(spark, df, branch).collect()
      .map(m => m.serials.map(_.toVector).toVector).toSet
    assert(local.nonEmpty)
    assert(dist == local)
  }

  test("segmented tree-plan negation run equals the driver-side run") {
    val sp = SimplePattern(SEQ,
      Vector(Elem(2, "T2"), Elem(0, "T0", negated = true), Elem(4, "T4")),
      Vector.empty, 1.0)
    val branch = Planner.planSimple(sp, provider, DP_B)
    val local = SegmentedRunner.runLocal(events, branch).map(_.byElem).toSet
    val dist = SegmentedRunner.run(spark, df, branch).collect()
      .map(m => m.serials.map(_.toVector).toVector).toSet
    assert(dist == local)
  }
}
