package repro.spark

import org.apache.spark.sql.execution.streaming.runtime.MemoryStream
import repro.SparkSpec
import repro.core._
import repro.data._

/** Structured Streaming chained stream–stream interval joins: match sets must
  * equal the batch Catalyst join formulation.
  */
class StreamingRunnerSpec extends SparkSpec {

  private lazy val cfg = StockConfig(nTypes = 4, horizon = 40.0, rateMin = 1.0, rateMax = 4.0, seed = 51)
  private lazy val df = StockData.streamDF(spark, StockData.events(cfg)).cache()
  private lazy val provider = StockData.provider(df, cfg)

  private def runStreaming(branch: PlannedBranch, name: String): Set[Vector[Long]] = {
    implicit val sql: org.apache.spark.sql.SQLContext = spark.sqlContext
    import spark.implicits._
    val input = MemoryStream[EventRow]
    val rows = df.as[EventRow].collect().sortBy(_.serial)
    val out = StreamingRunner.matchesStream(input.toDF(), branch)
    val query = out.writeStream.format("memory").queryName(name).outputMode("append").start()
    try {
      input.addData(rows.toSeq)
      query.processAllAvailable()
      spark.table(name).collect()
        .map(r => Vector.tabulate(branch.positive.size)(i => r.getLong(i))).toSet
    } finally query.stop()
  }

  private def runBatch(branch: PlannedBranch): Set[Vector[Long]] =
    JoinPlanRunner.run(df, branch).collect()
      .map(r => Vector.tabulate(branch.positive.size)(i => r.getLong(i))).toSet

  test("two-element sequence: streaming joins equal batch joins") {
    val sp = SimplePattern(SEQ, Vector(Elem(0, "T0"), Elem(1, "T1")),
      Vector(Pred(0, 1, AttrCmp(0, 0.0, less = true))), 2.0)
    val branch = Planner.planSimple(sp, provider, DP_LD)
    val streaming = runStreaming(branch, "m2")
    val batch = runBatch(branch)
    assert(batch.nonEmpty)
    assert(streaming == batch)
  }

  test("three-element sequence: chained stream-stream joins equal batch joins") {
    val sp = SimplePattern(SEQ, Vector(Elem(0, "T0"), Elem(1, "T1"), Elem(2, "T2")),
      Vector.empty, 1.0)
    val branch = Planner.planSimple(sp, provider, GREEDY)
    val streaming = runStreaming(branch, "m3")
    val batch = runBatch(branch)
    assert(batch.nonEmpty)
    assert(streaming == batch)
  }

  test("out-of-order plan (rare type first) detects the same streaming matches") {
    val sp = SimplePattern(SEQ, Vector(Elem(0, "T0"), Elem(1, "T1"), Elem(3, "T3")),
      Vector.empty, 1.0)
    val branch = Planner.branch(sp, provider, AnyMatch, 0.0)(_ => Left(OrderPlan(Vector(2, 0, 1))))
    assert(runStreaming(branch, "m4") == runBatch(branch))
  }
}
