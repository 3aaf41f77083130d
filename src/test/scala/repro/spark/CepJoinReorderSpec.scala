package repro.spark

import org.apache.spark.sql.catalyst.plans.Inner
import org.apache.spark.sql.catalyst.plans.logical.{Join, LogicalPlan}
import repro.{Oracle, SparkSpec}
import repro.core._
import repro.data._

/** The Catalyst extension point: DP-LD join reordering as an optimizer rule. */
class CepJoinReorderSpec extends SparkSpec {

  private lazy val cfg = StockConfig(nTypes = 6, horizon = 40.0, rateMin = 1.0, rateMax = 12.0, seed = 61)
  private lazy val df = StockData.streamDF(spark, StockData.events(cfg)).cache()
  private lazy val provider = StockData.provider(df, cfg)

  /** Left-to-right element order of the join leaves in an optimized plan. */
  private def leafOrder(plan: LogicalPlan): Vector[Int] = {
    val serial = raw"e(\d+)_serial".r
    def leaves(p: LogicalPlan): Vector[LogicalPlan] = p match {
      case Join(l, r, Inner, _, _) => leaves(l) ++ leaves(r)
      case other                   => Vector(other)
    }
    val joins = plan.collect { case j: Join => j }
    if (joins.isEmpty) Vector.empty
    else
      leaves(joins.head).flatMap(_.output.collectFirst {
        case a if serial.matches(a.name) => val serial(i) = a.name; i.toInt
      })
  }

  private def withRule[T](body: => T): T = {
    spark.experimental.extraOptimizations = Seq(CepJoinReorder)
    try body
    finally spark.experimental.extraOptimizations = Nil
  }

  test("rule reorders a trivial-order CEP join into the DP-LD order") {
    val sp = SimplePattern(SEQ,
      Vector(Elem(0, "T0"), Elem(1, "T1"), Elem(2, "T2"), Elem(3, "T3")),
      Vector(Pred(0, 3, AttrCmp(0, 1.0, less = true))), 1.0)
    val branch = Planner.planSimple(sp, provider, TRIVIAL)
    val cm = branch.model
    val expected = OrderAlgos.dpLeftDeep(cm).order
    assert(expected != Vector(0, 1, 2, 3), "statistics should make the trivial order sub-optimal")

    val out = JoinPlanRunner.run(df, branch)
    val plain = out.collect().map(_.toSeq).toSet
    withRule {
      CepStatsRegistry.withStats(branch.model.stats) {
        val reordered = JoinPlanRunner.run(df, branch)
        assert(leafOrder(reordered.queryExecution.optimizedPlan) == expected)
        assert(reordered.collect().map(_.toSeq).toSet == plain)
      }
    }
    // without the registry the rule must not fire
    withRule {
      val untouched = JoinPlanRunner.run(df, branch)
      assert(leafOrder(untouched.queryExecution.optimizedPlan) == Vector(0, 1, 2, 3))
    }
  }

  test("rule output stays DuckDB-equivalent") {
    val sp = SimplePattern(SEQ,
      Vector(Elem(1, "T1"), Elem(4, "T4"), Elem(5, "T5")),
      Vector(Pred(0, 2, AttrCmp(0, 0.5, less = true))), 1.0)
    val branch = Planner.planSimple(sp, provider, TRIVIAL)
    withRule {
      CepStatsRegistry.withStats(branch.model.stats) {
        val out = JoinPlanRunner.run(df, branch)
        val tables = branch.positive.elems.indices.map { i =>
          s"t$i" -> df.filter(org.apache.spark.sql.functions.col("typeId") === branch.positive.elems(i).typeId)
            .select("ts", "serial", "diff", "price")
        }
        Oracle.assertEquivalent(out, Oracle.duckSql(branch.positive), tables: _*)
      }
    }
  }

  test("concurrent queries each plan with their own registered stats") {
    def sp(types: Vector[Int]) = SimplePattern(SEQ, types.map(t => Elem(t, s"T$t")),
      Vector(Pred(0, 3, AttrCmp(0, 1.0, less = true))), 1.0)
    val branches = Vector(Vector(0, 1, 2, 3), Vector(5, 4, 2, 1))
      .map(types => Planner.planSimple(sp(types), provider, TRIVIAL))
    val expected = branches.map(b => OrderAlgos.dpLeftDeep(b.model).order)
    assert(expected.distinct.size == 2 && !expected.contains(Vector(0, 1, 2, 3)),
      s"the two patterns should have distinct, non-trivial DP-LD orders: $expected")

    // Both threads hold their stats before either one optimizes.
    val bothRegistered = new java.util.concurrent.CyclicBarrier(2)
    withRule {
      val orders = new Array[Vector[Int]](2)
      val threads = branches.indices.map { k =>
        new Thread(() => CepStatsRegistry.withStats(branches(k).model.stats) {
          bothRegistered.await()
          orders(k) = leafOrder(JoinPlanRunner.run(df, branches(k)).queryExecution.optimizedPlan)
        })
      }
      threads.foreach(_.start())
      threads.foreach(_.join())
      assert(orders.toVector == expected)
    }
  }

  test("rule is a no-op for non-CEP joins") {
    import spark.implicits._
    val a = Seq((1, "x"), (2, "y")).toDF("id", "va")
    val b = Seq((1, "p"), (2, "q")).toDF("id2", "vb")
    withRule {
      CepStatsRegistry.withStats(Stats.unconstrained(Vector(1.0, 1.0, 1.0), 1.0)) {
        val j = a.join(b, a("id") === b("id2"))
        assert(j.count() == 2)
      }
    }
  }
}
