package repro.bench

import org.apache.spark.sql.SparkSession
import repro.core._
import repro.data._
import scala.util.Random

/** One computation per reproduced table (see DESIGN.md): each returns the
  * formatted table text plus the structured data the bench suites assert on.
  */
object Tables {
  import BenchWorld.{fmtTable, gmean, sig}

  /** One row per algorithm and one column per label: each cell is the gmean of
    * `metric` over the runs whose `column` is that label.
    */
  private def gmeanTable(runs: Seq[RunRecord], algos: Seq[Algo], labels: Seq[String],
                         column: RunRecord => String, metric: RunRecord => Double): String =
    fmtTable("algorithm" +: labels, algos.map(a => a.name +: labels.map(l =>
      sig(gmean(runs.filter(r => r.algo == a && column(r) == l).map(metric))))))

  /** The cells whose Kleene candidate lists `maxKleeneBuffer` cut, or `none`. */
  private def kleeneCuts(runs: Seq[RunRecord], cell: RunRecord => String): String = {
    val cut = runs.filter(_.kleeneTruncated > 0).groupMapReduce(cell)(_.kleeneTruncated)(_ + _)
    s"\nKleene candidate lists cut at ${BenchWorld.maxKleeneBuffer}: " +
      (if (cut.isEmpty) "none" else cut.toSeq.sorted.map { case (c, n) => s"$c ($n)" }.mkString(", "))
  }

  private val throughputK: RunRecord => Double = _.throughput / 1e3
  private val peakLive: RunRecord => Double = _.peakLive.toDouble.max(1.0)

  /** An order-based and a tree-based table with one column per `category`. */
  private def byCategory(runs: Seq[RunRecord], metric: RunRecord => Double,
                         orderTitle: String, treeTitle: String): String = {
    val cats = runs.map(_.category).distinct
    s"\n=== $orderTitle ===\n" + gmeanTable(runs, Algo.orderBased, cats, _.category, metric) +
      s"\n\n=== $treeTitle ===\n" + gmeanTable(runs, Algo.treeBased, cats, _.category, metric)
  }

  // ---- T1 / T2 (Figs 4, 5): category × algorithm means ---------------------

  def t1(spark: SparkSession): (String, Vector[RunRecord]) = {
    val runs = BenchWorld.mainRuns(spark)
    val text = byCategory(runs, throughputK,
      "T1 (Fig 4a): mean throughput, order-based methods [K events/s]",
      "T1 (Fig 4b): mean throughput, tree-based methods [K events/s]") +
      kleeneCuts(runs, r => s"${r.category} ${r.algo}")
    (text, runs)
  }

  def t2(spark: SparkSession): (String, Vector[RunRecord]) = {
    val runs = BenchWorld.mainRuns(spark)
    val text = byCategory(runs, peakLive,
      "T2 (Fig 5a): peak live partial matches, order-based methods",
      "T2 (Fig 5b): peak live instances, tree-based methods")
    (text, runs)
  }

  // ---- T3 (Figs 6-15): by pattern size -------------------------------------

  def t3(spark: SparkSession): (String, Vector[RunRecord]) = {
    val runs = BenchWorld.mainRuns(spark)
    val sizes = BenchWorld.sizes.map(s => s"n=$s")
    val sections = for {
      cat <- runs.map(_.category).distinct
      (metric, of) <- Seq(("throughput [K events/s]", throughputK), ("peak live PMs", peakLive))
    } yield s"\n=== T3: $metric, category '$cat' ===\n" +
      gmeanTable(runs.filter(_.category == cat), Algo.all, sizes, r => s"n=${r.size}", of)
    (sections.mkString("\n") + kleeneCuts(runs, r => s"${r.category} n=${r.size} ${r.algo}"), runs)
  }

  // ---- T4 (Fig 16): cost model fit ------------------------------------------

  def spearman(xs: Seq[Double], ys: Seq[Double]): Double = {
    def ranks(v: Seq[Double]): Seq[Double] = {
      val idx = v.zipWithIndex.sortBy(_._1).map(_._2)
      val r = Array.ofDim[Double](v.size)
      idx.zipWithIndex.foreach { case (orig, rank) => r(orig) = rank.toDouble }
      r.toSeq
    }
    val rx = ranks(xs); val ry = ranks(ys)
    val n = xs.size
    val d2 = rx.zip(ry).map { case (a, b) => (a - b) * (a - b) }.sum
    1 - 6 * d2 / (n * (n * n - 1.0))
  }

  /** rho-(1/throughput), rho-memory, rho-createdPM per plan family. */
  def t4(spark: SparkSession): (String, Map[String, (Double, Double, Double)]) = {
    val runs = BenchWorld.mainRuns(spark).filterNot(_.capped)
    val fams = Seq(
      ("order-based", runs.filter(_.algo.orderBased)),
      ("tree-based", runs.filterNot(_.algo.orderBased)))
    val out = fams.map { case (name, sel) =>
      val pts = sel.filter(_.planCost > 0)
      val rhoT = spearman(pts.map(_.planCost), pts.map(-_.throughput))
      val rhoM = spearman(pts.map(_.planCost), pts.map(_.peakLive.toDouble))
      val rhoP = spearman(pts.map(_.planCost), pts.map(_.pmCreated.toDouble))
      val sample = pts.sortBy(_.planCost)
      val picks = Seq(0, sample.size / 4, sample.size / 2, 3 * sample.size / 4, sample.size - 1)
      val text =
        f"\n=== T4 (Fig 16): $name plans, ${pts.size} executions ===\n" +
          f"Spearman(cost, 1/throughput)  = $rhoT%.3f\n" +
          f"Spearman(cost, peak live PMs) = $rhoM%.3f\n" +
          f"Spearman(cost, created PMs)   = $rhoP%.3f\n" +
          fmtTable(Seq("cost", "throughput[K/s]", "peakPM", "createdPM"),
            picks.map(sample(_)).map(r => Seq(
              sig(r.planCost), sig(r.throughput / 1e3), r.peakLive.toString, r.pmCreated.toString)))
      (name, (rhoT, rhoM, rhoP), text)
    }
    (out.map(_._3).mkString("\n"), out.map(x => x._1 -> x._2).toMap)
  }

  // ---- T5 (Fig 17): large plans ---------------------------------------------

  val t5Sizes: Vector[Int] = Vector(3, 5, 7, 10, 14, 18, 22)
  val t5DpBushyCap = 14
  val t5Algos: Vector[Algo] = Vector(GREEDY, II_RANDOM, II_GREEDY, DP_LD, ZSTREAM, ZSTREAM_ORD, DP_B)

  private def t5Stats(n: Int, rnd: Random): Stats = {
    val rates = Vector.fill(n)(math.exp(rnd.nextDouble() * math.log(45.0)))
    val pairs = rnd.shuffle((for (i <- 0 until n; j <- i + 1 until n) yield (i, j)).toVector)
    val preds = pairs.take(math.max(1, n / 2)).map { case (i, j) =>
      (i, j, math.exp(math.log(0.002) + rnd.nextDouble() * math.log(0.88 / 0.002)))
    }
    Stats.fromPreds(rates, 1.0, preds)
  }

  /** (size, per-algo (algo, normalized cost = EFREQ/plan, genNanos)). */
  def t5(perSize: Int = 3): (String, Seq[(Int, Vector[(Algo, Double, Long)])]) = {
    val results = for (n <- t5Sizes; pid <- 0 until perSize) yield {
      val rnd = new Random(100L * n + pid)
      val stats = t5Stats(n, rnd)
      val efreqCost = new CostModel(stats).orderCost(OrderAlgos.efreq(stats))
      val perAlgo = t5Algos.flatMap { a =>
        if (a == DP_B && n > t5DpBushyCap) None
        else {
          val cm = new CostModel(stats) // fresh model per algo: honest gen-time attribution
          val t0 = System.nanoTime()
          val cost = a match {
            case GREEDY      => cm.orderCost(OrderAlgos.greedy(cm))
            case II_RANDOM   => cm.orderCost(OrderAlgos.iiRandom(cm, seed = pid))
            case II_GREEDY   => cm.orderCost(OrderAlgos.iiGreedy(cm))
            case DP_LD       => cm.orderCost(OrderAlgos.dpLeftDeep(cm))
            case ZSTREAM     => cm.treeCost(TreeAlgos.zstream(cm, (0 until n).toVector))
            case ZSTREAM_ORD => cm.treeCost(TreeAlgos.zstreamOrd(cm))
            case DP_B        => cm.treeCost(TreeAlgos.dpBushy(cm))
            case other       => throw new IllegalArgumentException(other.name)
          }
          Some((a, efreqCost / cost, System.nanoTime() - t0))
        }
      }
      (n, perAlgo)
    }
    def cell(a: Algo, n: Int, of: ((Algo, Double, Long)) => Double): String = {
      val xs = results.filter(_._1 == n).flatMap(_._2.filter(_._1 == a)).map(of)
      if (xs.isEmpty) "-" else sig(gmean(xs))
    }
    val header = "algorithm" +: t5Sizes.map(n => s"n=$n")
    val text =
      "\n=== T5 (Fig 17a): normalized plan cost, EFREQ-cost / plan-cost (higher is better) ===\n" +
        fmtTable(header, t5Algos.map(a => a.name +: t5Sizes.map(n => cell(a, n, _._2)))) +
        "\n\n=== T5 (Fig 17b): plan generation time [ms] ===\n" +
        fmtTable(header, t5Algos.map(a => a.name +: t5Sizes.map(n => cell(a, n, _._3 / 1e6)))) +
        s"\n(DP-B capped at n=$t5DpBushyCap; the paper reports >50h for DP-B at n=22)"
    (text, results)
  }

  // ---- T6 (Fig 18): latency trade-off ---------------------------------------

  final case class LatPoint(algo: Algo, alpha: Double, throughput: Double,
                            latencyMicros: Double, modelLat: Double)
  val t6Alphas: Vector[Double] = Vector(0.0, 0.5, 1.0)

  def t6(spark: SparkSession, perSize: Int = 2): (String, Seq[LatPoint]) = {
    val (events, provider) = BenchWorld.world(spark)
    val pts = for {
      size <- BenchWorld.sizes
      pid <- 0 until perSize
      algo <- Algo.jqpgAlgos
      alpha <- t6Alphas
    } yield {
      val pattern = PatternGen.generate(SequenceCat, size, BenchWorld.cfg.nTypes, provider,
        seed = 5000L * pid + size)
      val sp = SimplePattern(SEQ, pattern.leaves, pattern.preds, pattern.window)
      val base = Planner.planSimple(sp, provider, DP_LD)
      val latScale = base.model.stats.rates.sum * base.model.stats.window
      val alphaEff = alpha * base.cost / math.max(latScale, 1e-9)
      val branch = Planner.planSimple(sp, provider, algo, AnyMatch, alphaEff)
      val r = BenchWorld.execute(events, Vector(branch), SequenceCat.name, size, algo)
      val cm = branch.model
      LatPoint(algo, alpha, r.throughput, r.latencyMicros, branch.plan.fold(cm.orderLatency, cm.treeLatency))
    }
    val rows = for (a <- Algo.jqpgAlgos; al <- t6Alphas) yield {
      val sel = pts.filter(p => p.algo == a && p.alpha == al)
      Seq(a.name, al.toString,
        sig(gmean(sel.map(_.throughput)) / 1e3),
        sig(sel.map(_.latencyMicros).sum / sel.size),
        sig(sel.map(_.modelLat).sum / sel.size))
    }
    val text =
      "\n=== T6 (Fig 18): throughput [K events/s] and mean latency [us] by alpha ===\n" +
        fmtTable(Seq("algorithm", "alpha", "throughput[K/s]", "latency[us]", "model-lat"), rows)
    (text, pts)
  }

  // ---- T7 (Fig 19): selection strategies ------------------------------------

  val t7Strategies: Vector[(String, Strategy)] = Vector(
    ("skip-till-any", AnyMatch), ("skip-till-next", NextMatch), ("contiguity", Contiguity))

  def t7(spark: SparkSession, perSize: Int = 2): (String, Seq[(String, RunRecord)]) = {
    val (events, provider) = BenchWorld.world(spark)
    val runs = for {
      size <- BenchWorld.sizes
      pid <- 0 until perSize
      (sname, strat) <- t7Strategies
      algo <- Algo.all
    } yield {
      val p0 = PatternGen.generate(SequenceCat, size, BenchWorld.cfg.nTypes, provider,
        seed = 7000L * pid + size)
      // Double the window for this table: the paper's strategy comparison runs
      // in a partial-match-dominated regime (W·r up to 54k); the wider window
      // restores that regime at our scale so the strategies' pruning actually
      // shows (skip-till-any combinatorics vs consumption-based pruning).
      val pattern = Pattern(p0.root, p0.preds, p0.window * 2.0)
      (sname, BenchWorld.execute(events, Planner.plan(pattern, provider, algo, strat), sname, size, algo))
    }
    val records = runs.map(_._2)
    val text = byCategory(records, throughputK,
      "T7 (Fig 19a): throughput [K events/s], order-based methods",
      "T7 (Fig 19b): throughput [K events/s], tree-based methods") +
      kleeneCuts(records, r => s"${r.category} n=${r.size} ${r.algo}")
    (text, runs)
  }
}
