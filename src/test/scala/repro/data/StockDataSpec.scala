package repro.data

import repro.SparkSpec
import repro.bench.BenchWorld
import repro.cep.Event
import repro.core._

/** Synthetic stock stream generation and statistics measurement (§7.2). */
class StockDataSpec extends SparkSpec {

  private lazy val cfg = StockConfig(nTypes = 6, horizon = 50.0, rateMin = 1.0, rateMax = 10.0, seed = 11)
  private lazy val events = StockData.events(cfg)
  private lazy val df = StockData.streamDF(spark, events).cache()

  /** Event count, per-type counts and an FNV-1a hash over every event field. */
  private def fingerprint(nTypes: Int, events: Array[Event]): String = {
    val counts = new Array[Int](nTypes)
    var h = 0xcbf29ce484222325L
    def mix(x: Long): Unit = { h ^= x; h *= 0x100000001b3L }
    events.foreach { e =>
      counts(e.typeId) += 1
      mix(e.typeId.toLong); mix(java.lang.Double.doubleToLongBits(e.ts)); mix(e.serial)
      e.attrs.foreach(a => mix(java.lang.Double.doubleToLongBits(a)))
    }
    f"events=${events.length} types=${counts.mkString("/")} hash=$h%016x"
  }

  test("stream schema and row count match configured rates") {
    assert(df.columns.toSet == Set("typeId", "ts", "serial", "diff", "price"))
    val expected = StockData.configuredRates(cfg).map(r => math.max(1L, math.round(r * cfg.horizon))).sum
    assert(df.count() == expected)
  }

  test("generation is deterministic in the config") {
    // The world depends on the config alone: these strings hold under any
    // core count. The second is the benchmark's grid world at seed 97.
    assert(fingerprint(BenchWorld.cfg.nTypes, StockData.events(BenchWorld.cfg)) ==
      "events=17593 types=1210/1091/2379/522/651/861/639/906/594/708/219/395/550/2011/1356/232/2537/260/308/164 hash=2e519ac0e4868e03")
    val grid = StockConfig(20, 60.0, 1.0, 10.0, 1.0, 97)
    assert(fingerprint(grid.nTypes, StockData.events(grid)) ==
      "events=4695 types=317/291/543/162/193/241/190/251/180/207/81/130/169/474/347/85/571/93/106/64 hash=d8f982393e65115f")
    // Spark-side measurement does not depend on the partitioning either.
    val parts = Seq(1, 7).map(n => df.repartition(n))
    val Seq(r1, r7) = parts.map(StockData.measuredRates(_, cfg.horizon))
    assert(r1 == r7)
    val Seq(d1, d7) = parts.map(StockData.diffSamples(_))
    assert(d1.keySet == d7.keySet)
    d1.foreach { case (t, xs) =>
      assert(xs.map(java.lang.Double.doubleToLongBits).sameElements(d7(t).map(java.lang.Double.doubleToLongBits)),
        s"type $t")
    }
  }

  test("serials are unique, contiguous and increase with ts") {
    assert(events.map(_.serial).toVector == events.indices.map(_.toLong).toVector)
    assert(events.sliding(2).forall { case Array(a, b) => a.ts <= b.ts; case _ => true })
  }

  test("measured rates approximate configured rates (Spark aggregation)") {
    val conf = StockData.configuredRates(cfg)
    val meas = StockData.measuredRates(df, cfg.horizon)
    conf.zipWithIndex.foreach { case (r, i) =>
      assert(math.abs(meas(i) - r) <= math.max(0.5, 0.15 * r), s"type $i: configured $r measured ${meas(i)}")
    }
  }

  test("timestamps stay inside the horizon; diffs are centred") {
    assert(events.forall(e => e.ts >= 0 && e.ts <= cfg.horizon))
    val mean = events.map(_.diff).sum / events.length
    assert(math.abs(mean) < 0.2)
  }

  test("measured AttrCmp selectivity matches a direct empirical count") {
    val diffs = StockData.diffSamples(df)
    val rates = StockData.measuredRates(df, cfg.horizon)
    val provider = new MeasuredStatsProvider(rates, diffs, cfg.window, rates.values.sum)
    val a = Elem(0, "T0"); val b = Elem(1, "T1")
    val sel = provider.predSelectivity(a, b, AttrCmp(0, 0.0, less = true))
    // Both diffs ~ N(0,1) => P(x < y) ≈ 0.5
    assert(sel > 0.35 && sel < 0.65, s"sel=$sel")
    // complementarity
    val selGt = provider.predSelectivity(a, b, AttrCmp(0, 0.0, less = false))
    assert(math.abs(sel + selGt - 1.0) < 1e-6)
  }

  test("shiftForTargetSelectivity dials the measured selectivity to the target") {
    val diffs = StockData.diffSamples(df)
    val rates = StockData.measuredRates(df, cfg.horizon)
    val provider = new MeasuredStatsProvider(rates, diffs, cfg.window, rates.values.sum)
    for (target <- Seq(0.05, 0.2, 0.5, 0.8)) {
      val shift = provider.shiftForTargetSelectivity(0, 1, target, seed = 3)
      val got = provider.predSelectivity(Elem(0, "a"), Elem(1, "b"), AttrCmp(0, shift, less = true))
      assert(math.abs(got - target) < 0.1, s"target=$target got=$got")
    }
  }

  test("TsLess and SerialSucc selectivities follow the documented estimates") {
    val diffs = StockData.diffSamples(df)
    val rates = StockData.measuredRates(df, cfg.horizon)
    val total = rates.values.sum
    val provider = new MeasuredStatsProvider(rates, diffs, cfg.window, total)
    assert(provider.predSelectivity(Elem(0, "a"), Elem(1, "b"), TsLess) == 0.5)
    val ss = provider.predSelectivity(Elem(0, "a"), Elem(1, "b"), SerialSucc)
    assert(math.abs(ss - math.min(1.0, 1.0 / (cfg.window * total))) < 1e-12)
  }
}
