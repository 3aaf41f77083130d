package repro.spark

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions._
import repro.{Oracle, SparkSpec, SynthData}
import repro.cep.EngineTestKit
import repro.core._
import repro.data._

/** The CEP-as-join execution path (Theorems 1/2): Catalyst joins must agree with
  * both engines and with DuckDB on the match set, and intermediate cardinalities
  * must be plan-dependent exactly as the cost model predicts.
  */
class JoinPlanRunnerSpec extends SparkSpec {

  private lazy val cfg = StockConfig(nTypes = 5, horizon = 40.0, rateMin = 1.0, rateMax = 6.0, seed = 31)
  private lazy val events = StockData.events(cfg)
  private lazy val df = StockData.streamDF(spark, events).cache()
  private lazy val provider = StockData.provider(df, cfg)

  private def seqPattern(types: Vector[Int], preds: Vector[Pred], w: Double = 1.0) =
    SimplePattern(SEQ, types.map(t => Elem(t, s"T$t")), preds, w)

  private def rawTables(positive: SimplePattern): Seq[(String, DataFrame)] =
    positive.elems.indices.map { i =>
      s"t$i" -> df.filter(col("typeId") === positive.elems(i).typeId)
        .select("ts", "serial", "diff", "price")
    }

  test("join matches equal NFA-engine matches for a pure sequence") {
    val sp = seqPattern(Vector(0, 1, 2), Vector(Pred(0, 2, AttrCmp(0, 0.0, less = true))))
    val branch = Planner.planSimple(sp, provider, DP_LD)
    val sparkRows = JoinPlanRunner.run(df, branch).collect()
      .map(r => Vector.tabulate(3)(i => Vector(r.getLong(i)))).toSet
    val engineMatches = EngineTestKit.matchSet(
      new repro.cep.TreeEngine(branch).run(events.toIndexedSeq))
    assert(sparkRows == engineMatches)
    assert(sparkRows.nonEmpty)
  }

  test("join matches equal tree-engine matches for a pure conjunction") {
    val sp = SimplePattern(AND, Vector(Elem(1, "T1"), Elem(3, "T3"), Elem(4, "T4")),
      Vector(Pred(0, 1, AttrCmp(0, 0.3, less = true))), 1.0)
    val branch = Planner.planSimple(sp, provider, DP_B)
    val sparkRows = JoinPlanRunner.run(df, branch).collect()
      .map(r => Vector.tabulate(3)(i => Vector(r.getLong(i)))).toSet
    val engineMatches = EngineTestKit.matchSet(
      new repro.cep.TreeEngine(branch).run(events.toIndexedSeq))
    assert(sparkRows == engineMatches)
  }

  test("DuckDB oracle: sequence pattern join is equivalent") {
    val sp = seqPattern(Vector(0, 1, 2), Vector(Pred(0, 1, AttrCmp(0, 0.2, less = true))))
    val branch = Planner.planSimple(sp, provider, GREEDY)
    val out = JoinPlanRunner.run(df, branch)
    Oracle.assertEquivalent(out, Oracle.duckSql(branch.positive), rawTables(branch.positive): _*)
  }

  test("DuckDB oracle: conjunction with a '>' predicate is equivalent") {
    val sp = SimplePattern(AND, Vector(Elem(2, "T2"), Elem(0, "T0"), Elem(3, "T3")),
      Vector(Pred(0, 2, AttrCmp(0, -0.1, less = false))), 0.8)
    val branch = Planner.planSimple(sp, provider, ZSTREAM)
    val out = JoinPlanRunner.run(df, branch)
    Oracle.assertEquivalent(out, Oracle.duckSql(branch.positive), rawTables(branch.positive): _*)
  }

  test("all plans produce the same final cardinality; intermediates differ by plan") {
    val sp = seqPattern(Vector(0, 1, 4), Vector(Pred(0, 2, AttrCmp(0, 0.8, less = true))))
    val branches = Vector(TRIVIAL, DP_LD, DP_B, ZSTREAM).map(a => Planner.planSimple(sp, provider, a))
    val counts = branches.map(b => JoinPlanRunner.run(df, b).count())
    assert(counts.toSet.size == 1, s"plans disagree on match count: $counts")
  }

  test("intermediate counts: the final intermediate equals the match count") {
    val sp = seqPattern(Vector(1, 2, 3), Vector(Pred(0, 1, AttrCmp(0, 0.0, less = true))))
    val branch = Planner.planSimple(sp, provider, DP_LD)
    val inters = JoinPlanRunner.intermediateCounts(df, branch)
    val full = inters.find(_._1 == Set(0, 1, 2)).get._2
    assert(full == JoinPlanRunner.run(df, branch).count())
    // leaf intermediates equal windowed type cardinalities
    val leaf0 = inters.find(_._1 == Set(0)).get._2
    assert(leaf0 == df.filter(col("typeId") === 1).count())
  }

  test("a restrictive predicate shrinks the early intermediate when joined first (Fig 3)") {
    val sp = SimplePattern(AND, Vector(Elem(0, "T0"), Elem(1, "T1"), Elem(2, "T2")),
      Vector(Pred(0, 2, AttrCmp(0, 2.5, less = true))), 1.0)
    val stats = Planner.buildStats(sp, provider)
    val cm = new CostModel(stats)
    val bad = EngineTestKit.treeBranch(sp, NodePlan(NodePlan(LeafPlan(0), LeafPlan(1)), LeafPlan(2)))
    val good = EngineTestKit.treeBranch(sp, NodePlan(NodePlan(LeafPlan(0), LeafPlan(2)), LeafPlan(1)))
    val badInter = JoinPlanRunner.intermediateCounts(df, bad).find(_._1 == Set(0, 1)).get._2
    val goodInter = JoinPlanRunner.intermediateCounts(df, good).find(_._1 == Set(0, 2)).get._2
    assert(goodInter < badInter, s"selective pair should be smaller: $goodInter vs $badInter")
    // and the cost model agrees on the ordering
    assert(cm.pm((1 << 0) | (1 << 2)) < cm.pm((1 << 0) | (1 << 1)))
  }

  test("JQPG ⊆ CPG direction: TPC-H-lite relations planned as a conjunctive pattern") {
    // Theorem 1's second direction: relations become event types with
    // r_i = |R_i|/W. We plan the 3-way equijoin lineitem⋈orders⋈customer with
    // DP-LD over measured cardinalities/selectivities and verify the executed
    // result against DuckDB.
    val li = SynthData.lineitem(spark, sf = 0.001).cache()
    val ord = SynthData.orders(spark, sf = 0.001).cache()
    val cust = SynthData.customer(spark, sf = 0.001).cache()
    val nLi = li.count().toDouble
    val nOrd = ord.count().toDouble
    val nCust = cust.count().toDouble
    // Equijoin selectivities ≈ 1/distinct-keys of the referenced side.
    val selLiOrd = 1.0 / nOrd
    val selOrdCust = 1.0 / nCust
    val w = math.max(nLi, math.max(nOrd, nCust))
    val stats = Stats.fromPreds(
      Vector(nLi / w, nOrd / w, nCust / w), w,
      Seq((0, 1, selLiOrd), (1, 2, selOrdCust)))
    val cm = new CostModel(stats)
    val order = OrderAlgos.dpLeftDeep(cm).order
    assert(cm.orderCost(OrderPlan(order)) <= cm.orderCost(OrderAlgos.trivial(3)) + 1e-6)

    // Execute the joins in DP order and oracle-check the aggregate result.
    val dfs = Vector(li, ord, cust)
    val joined = order.tail.foldLeft(dfs(order.head)) { (acc, k) => acc.join(dfs(k)) }
      .where(col("l_orderkey") === col("o_orderkey") && col("o_custkey") === col("c_custkey"))
    val out = joined.groupBy("c_mktsegment")
      .agg(count(lit(1)) as "cnt", round(sum("l_extendedprice"), 2) as "revenue")
    Oracle.assertEquivalent(
      out,
      """SELECT c_mktsegment,
        |       COUNT(*) AS cnt,
        |       ROUND(SUM(CAST(l_extendedprice AS DOUBLE)), 2) AS revenue
        |FROM lineitem, orders, customer
        |WHERE CAST(l_orderkey AS BIGINT) = CAST(o_orderkey AS BIGINT)
        |  AND CAST(o_custkey AS BIGINT) = CAST(c_custkey AS BIGINT)
        |GROUP BY c_mktsegment""".stripMargin,
      "lineitem" -> li, "orders" -> ord, "customer" -> cust)
  }
}
