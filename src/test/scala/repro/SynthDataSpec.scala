package repro

import org.apache.spark.sql.functions._

/** Exercises the provided TPC-H-lite generators and the DuckDB oracle on plain
  * relational queries — the substrate for the JQPG⊆CPG direction tests.
  */
class SynthDataSpec extends SparkSpec {

  private lazy val li = SynthData.lineitem(spark, sf = 0.001).cache()
  private lazy val ord = SynthData.orders(spark, sf = 0.001).cache()

  test("generators are deterministic and sized by scale factor") {
    assert(li.count() == 6000)
    assert(ord.count() == 1500)
    assert(SynthData.customer(spark, sf = 0.001).count() == 150)
    assert(SynthData.part(spark, sf = 0.001).count() == 200)
    assert(li.collect().map(_.toString).sorted
      .sameElements(SynthData.lineitem(spark, sf = 0.001).collect().map(_.toString).sorted))
  }

  test("oracle agrees on a grouped aggregation (TPC-H Q1 flavour)") {
    val out = li.filter(col("l_quantity") > 25)
      .groupBy("l_returnflag", "l_linestatus")
      .agg(count(lit(1)) as "cnt", round(avg("l_discount"), 4) as "avg_disc")
    Oracle.assertEquivalent(
      out,
      """SELECT l_returnflag, l_linestatus, COUNT(*) AS cnt,
        |       ROUND(AVG(CAST(l_discount AS DOUBLE)), 4) AS avg_disc
        |FROM lineitem WHERE CAST(l_quantity AS DOUBLE) > 25
        |GROUP BY l_returnflag, l_linestatus""".stripMargin,
      "lineitem" -> li)
  }

  test("oracle agrees on a join with aggregation") {
    val out = li.join(ord, col("l_orderkey") === col("o_orderkey"))
      .groupBy("o_orderstatus")
      .agg(count(lit(1)) as "cnt")
    Oracle.assertEquivalent(
      out,
      """SELECT o_orderstatus, COUNT(*) AS cnt
        |FROM lineitem, orders
        |WHERE CAST(l_orderkey AS BIGINT) = CAST(o_orderkey AS BIGINT)
        |GROUP BY o_orderstatus""".stripMargin,
      "lineitem" -> li, "orders" -> ord)
  }
}
