package repro.spark

import org.apache.spark.sql.functions._
import repro.SparkSpec
import repro.core._
import repro.data._

/** Distributed engine execution: segmentation must be lossless and duplicate-free. */
class SegmentedRunnerSpec extends SparkSpec {

  private lazy val cfg = StockConfig(nTypes = 5, horizon = 60.0, rateMin = 1.0, rateMax = 6.0, seed = 41)
  private lazy val events = StockData.events(cfg)
  private lazy val df = StockData.streamDF(spark, events).cache()
  private lazy val provider = StockData.provider(df, cfg)

  test("every event lands in at most two segments and covers its window range") {
    val segged = SegmentedRunner.withSegments(df, segLen = 2.0, window = 1.0)
    val perEvent = segged.groupBy("serial").agg(count(lit(1)) as "n")
    assert(perEvent.agg(max("n")).head.getLong(0) <= 2)
    // events close to a boundary are replicated
    val replicated = perEvent.filter(col("n") === 2).count()
    assert(replicated > 0)
  }

  test("segmented NFA run equals the driver-side run (sequence pattern)") {
    val sp = SimplePattern(SEQ,
      Vector(Elem(0, "T0"), Elem(1, "T1"), Elem(2, "T2")),
      Vector(Pred(0, 2, AttrCmp(0, 0.0, less = true))), 1.0)
    val branch = Planner.planSimple(sp, provider, DP_LD)
    val local = SegmentedRunner.runLocal(events, branch).map(_.byElem).toSet
    val dist = SegmentedRunner.run(spark, df, branch).collect()
      .map(m => m.serials.map(_.toVector).toVector).toSet
    assert(local.nonEmpty)
    assert(dist == local)
  }

  test("segmented tree run equals the driver-side run (conjunction pattern)") {
    val sp = SimplePattern(AND,
      Vector(Elem(1, "T1"), Elem(3, "T3"), Elem(4, "T4")),
      Vector(Pred(0, 1, AttrCmp(0, 0.5, less = true))), 1.0)
    val branch = Planner.planSimple(sp, provider, DP_B)
    val local = SegmentedRunner.runLocal(events, branch).map(_.byElem).toSet
    val dist = SegmentedRunner.run(spark, df, branch).collect()
      .map(m => m.serials.map(_.toVector).toVector).toSet
    assert(dist == local)
  }

  test("longer segments change nothing (lossless for any L >= W)") {
    val sp = SimplePattern(SEQ,
      Vector(Elem(0, "T0"), Elem(2, "T2")), Vector.empty, 1.0)
    val branch = Planner.planSimple(sp, provider, GREEDY)
    val base = SegmentedRunner.run(spark, df, branch, segLen = 2.0).collect()
      .map(m => m.serials.map(_.toVector).toVector).toSet
    val longer = SegmentedRunner.run(spark, df, branch, segLen = 7.5).collect()
      .map(m => m.serials.map(_.toVector).toVector).toSet
    assert(base == longer)
  }

  test("skip-till-next-match is rejected: segments cannot share consumed events") {
    val sp = SimplePattern(SEQ,
      Vector(Elem(0, "T0"), Elem(1, "T1"), Elem(2, "T2")), Vector.empty, 1.0)
    for (algo <- Seq(DP_LD, DP_B)) {
      val branch = Planner.planSimple(sp, provider, algo, NextMatch)
      val err = intercept[IllegalArgumentException](SegmentedRunner.run(spark, df, branch))
      assert(err.getMessage.contains("skip-till-next-match"))
    }
  }
}
