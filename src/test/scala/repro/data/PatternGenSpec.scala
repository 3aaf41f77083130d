package repro.data

import repro.SparkSpec
import repro.core._

/** The §7.2 workload generator: category shapes, predicate counts, statistics wiring. */
class PatternGenSpec extends SparkSpec {

  private lazy val cfg = StockConfig(nTypes = 10, horizon = 60.0, rateMin = 1.0, rateMax = 8.0, seed = 21)
  private lazy val df = StockData.streamDF(spark, StockData.events(cfg)).cache()
  private lazy val provider = StockData.provider(df, cfg)

  private def gen(cat: Category, size: Int, seed: Long = 5) =
    PatternGen.generate(cat, size, cfg.nTypes, provider, seed)

  test("sequence patterns: SEQ over distinct types with ⌊size/2⌋ predicates") {
    for (size <- 3 to 7) {
      val p = gen(SequenceCat, size)
      val leaves = p.leaves
      assert(leaves.size == size)
      assert(leaves.map(_.typeId).distinct.size == size)
      assert(p.preds.size == size / 2)
      assert(p.preds.forall(_.op.isInstanceOf[AttrCmp]))
      assert(p.root.asInstanceOf[OpNode].op == SEQ)
    }
  }

  test("conjunction patterns use AND and no unary operators") {
    val p = gen(ConjunctionCat, 5)
    assert(p.root.asInstanceOf[OpNode].op == AND)
    assert(p.leaves.forall(e => !e.negated && !e.kleene))
  }

  test("negation patterns negate exactly one interior element") {
    for (size <- 3 to 7; seed <- 1L to 5L) {
      val p = gen(NegationCat, size, seed)
      val negIdx = p.leaves.zipWithIndex.filter(_._1.negated).map(_._2)
      assert(negIdx.size == 1)
      assert(negIdx.head > 0 && negIdx.head < size - 1)
    }
  }

  test("Kleene patterns put KL on the lowest-rate chosen type") {
    for (seed <- 1L to 5L) {
      val p = gen(KleeneCat, 5, seed)
      val kl = p.leaves.filter(_.kleene)
      assert(kl.size == 1)
      val rates = p.leaves.map(provider.rate)
      assert(provider.rate(kl.head) == rates.min)
    }
  }

  test("disjunction patterns are an OR of three sequences with branch-local predicates") {
    val p = gen(DisjunctionCat, 4)
    val root = p.root.asInstanceOf[OpNode]
    assert(root.op == OR && root.children.size == 3)
    assert(root.children.forall { c => val o = c.asInstanceOf[OpNode]; o.op == SEQ && o.children.size == 4 })
    // every predicate stays within one branch's leaf range
    p.preds.foreach { pr =>
      assert(pr.i / 4 == pr.j / 4, s"predicate $pr spans branches")
    }
    val branches = Rewrites.dnf(p)
    assert(branches.size == 3)
    branches.foreach(b => assert(b.elems.size == 4))
  }

  test("generation is deterministic in (category, size, seed)") {
    for (cat <- Category.all) {
      assert(gen(cat, 4, 9) == gen(cat, 4, 9))
    }
  }

  test("generated patterns plan end-to-end through every algorithm") {
    for (cat <- Category.all; algo <- Algo.all) {
      val p = gen(cat, 4, 13)
      val branches = Planner.plan(p, provider, algo)
      assert(branches.nonEmpty)
      branches.foreach { b =>
        assert(b.plan.isLeft == algo.orderBased)
        assert(b.cost > 0.0)
        assert(b.model.stats.n == b.positive.size)
      }
    }
  }

  test("planned branch costs: DP never worse than native baselines") {
    for (cat <- Category.all; size <- Seq(4, 6)) {
      val p = gen(cat, size, 17)
      def cost(algo: Algo): Double = Planner.plan(p, provider, algo).map(_.cost).sum
      assert(cost(DP_LD) <= cost(TRIVIAL) + 1e-9)
      assert(cost(DP_LD) <= cost(EFREQ) + 1e-9)
      assert(cost(DP_B) <= cost(ZSTREAM) + 1e-9)
      assert(cost(DP_B) <= cost(ZSTREAM_ORD) + 1e-9)
    }
  }
}
