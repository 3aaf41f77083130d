package repro.cep

import org.scalatest.funsuite.AnyFunSuite
import repro.core._
import EngineTestKit._
import scala.util.Random
import scala.util.hashing.MurmurHash3

/** Golden counters: for fixed-seed random patterns and streams, every order
  * plan (§2.2) and every tree plan (§2.3) under every selection strategy
  * reports the recorded matches, partial matches created, peak live partial
  * matches and peak buffered events. The values were recorded with the
  * separate lazy-NFA (order plans) and tree engines of commit 440cb7e; an
  * engine that runs order plans as left-deep trees must reproduce them. Tree
  * plans have since changed leaf kinds (see [[oneLeafRuleTrees]]).
  */
class GoldenCounterSpec extends AnyFunSuite {

  private type Counters = (Long, Long, Long, Long)
  private type Summary = (Long, Long, Long, Long, Int)

  /** A small Kleene cap, so truncation of the candidate list is exercised. */
  private val config = EngineConfig(collectMatches = false, maxKleeneBuffer = 4)

  /** (seed, n, withNeg, withKl) of each pattern. */
  private val patterns = Seq(
    (601, 3, true, true), (602, 4, true, true), (603, 5, true, true),
    (604, 3, false, true), (605, 4, false, true), (606, 5, false, true),
    (607, 3, true, false), (608, 4, true, false), (609, 5, true, false),
  )

  /** Per plan (every order in `permutations` order, then every tree of
    * `PlanOracles.enumerate`): matches, pmCreated, peakLivePm and peakBuffered;
    * and the Kleene candidate lists the tree plans cut.
    */
  private def counters(seed: Int, n: Int, withNeg: Boolean, withKl: Boolean,
                       strategy: Strategy): (Vector[Counters], Vector[Counters], Long) = {
    val rnd = new Random(seed)
    val sp = randomPattern(rnd, n, withNeg, withKl)
    // About three events of each type per window; type n is foreign. Over
    // 1024 events, so the periodic sweep runs too.
    val s = randomStream(n + 1, 1500, 750.0 / (n + 1), rnd)
    val elems = (0 until sp.positives.size).toVector
    def of(r: RunResult): Counters = {
      assert(!r.capped)
      (r.stats.matches, r.stats.pmCreated, r.stats.peakLivePm, r.stats.peakBuffered)
    }
    val treeRuns = PlanOracles.enumerate(elems).map(t => runTree(sp, t, s, strategy, config))
    (elems.permutations.map(o => of(runNfa(sp, o, s, strategy, config))).toVector,
      treeRuns.map(of), treeRuns.map(_.stats.kleeneTruncated).sum)
  }

  /** Sums of the four counters over the plans, and a hash of the per-plan tuples. */
  private def summary(c: Vector[Counters]): Summary =
    (c.map(_._1).sum, c.map(_._2).sum, c.map(_._3).sum, c.map(_._4).sum, MurmurHash3.orderedHash(c))

  /** Order plans, keyed by (seed, strategy). */
  private val goldenOrders: Map[(Int, Strategy), Summary] = Map(
    (601, AnyMatch) -> (4904L, 14211L, 340L, 36L, 227457669),
    (601, NextMatch) -> (292L, 5716L, 321L, 36L, -231541185),
    (601, Contiguity) -> (546L, 2470L, 259L, 36L, -1902536056),
    (602, AnyMatch) -> (8694L, 30846L, 1026L, 126L, 210697878),
    (602, NextMatch) -> (516L, 15355L, 665L, 126L, 1038870374),
    (602, Contiguity) -> (294L, 13505L, 893L, 126L, 883812746),
    (603, AnyMatch) -> (37540L, 140952L, 6657L, 696L, -1699398969),
    (603, NextMatch) -> (1752L, 74849L, 5134L, 696L, 621448914),
    (603, Contiguity) -> (192L, 39773L, 2741L, 696L, -249668298),
    (604, AnyMatch) -> (35856L, 66330L, 2242L, 120L, 1567036788),
    (604, NextMatch) -> (1206L, 13364L, 915L, 120L, -461679660),
    (604, Contiguity) -> (180L, 15956L, 1518L, 120L, 1679985209),
    (605, AnyMatch) -> (6768L, 81373L, 4307L, 552L, 1562084075),
    (605, NextMatch) -> (984L, 62742L, 3715L, 552L, 774746497),
    (605, Contiguity) -> (24L, 44872L, 2900L, 552L, 854197125),
    (606, AnyMatch) -> (2248592L, 5559552L, 370839L, 3000L, -1633268545),
    (606, NextMatch) -> (8080L, 1460569L, 173520L, 3000L, -66854494),
    (606, Contiguity) -> (8080L, 1460569L, 173520L, 3000L, -66854494),
    (607, AnyMatch) -> (262L, 1530L, 26L, 38L, -971387118),
    (607, NextMatch) -> (150L, 1339L, 24L, 38L, 247141829),
    (607, Contiguity) -> (294L, 1167L, 24L, 38L, -227112725),
    (608, AnyMatch) -> (1620L, 9098L, 173L, 150L, -406704660),
    (608, NextMatch) -> (408L, 6768L, 167L, 150L, -1395940977),
    (608, Contiguity) -> (234L, 4659L, 168L, 150L, 1406463414),
    (609, AnyMatch) -> (15048L, 71990L, 2733L, 696L, 1536084905),
    (609, NextMatch) -> (1512L, 45840L, 1752L, 696L, -155023039),
    (609, Contiguity) -> (432L, 20622L, 1025L, 696L, 805298751),
  )

  /** Tree plans, keyed by (seed, strategy), before the one leaf rule. */
  private val goldenTrees: Map[(Int, Strategy), Summary] = Map(
    (601, AnyMatch) -> (2452L, 9085L, 328L, 17L, -1820679499),
    (601, NextMatch) -> (146L, 3819L, 311L, 17L, -1667026881),
    (601, Contiguity) -> (273L, 1825L, 251L, 17L, -1147080744),
    (602, AnyMatch) -> (4347L, 20841L, 696L, 39L, -37529885),
    (602, NextMatch) -> (258L, 11150L, 483L, 39L, -1466270702),
    (602, Contiguity) -> (147L, 11113L, 666L, 39L, 1970275349),
    (603, AnyMatch) -> (25590L, 122738L, 6104L, 225L, -1777390003),
    (603, NextMatch) -> (1095L, 69345L, 5072L, 225L, 1314692827),
    (603, Contiguity) -> (120L, 55340L, 3632L, 225L, -1325189203),
    (604, AnyMatch) -> (17928L, 41073L, 1458L, 36L, -1585632795),
    (604, NextMatch) -> (603L, 9661L, 695L, 36L, 1716287204),
    (604, Contiguity) -> (90L, 15224L, 1222L, 36L, 1349202256),
    (605, AnyMatch) -> (4230L, 93486L, 4024L, 150L, 470520965),
    (605, NextMatch) -> (615L, 76634L, 3586L, 150L, 1425457793),
    (605, Contiguity) -> (15L, 70116L, 4669L, 150L, -458648512),
    (606, AnyMatch) -> (2201010L, 5050443L, 310572L, 840L, 1070808639),
    (606, NextMatch) -> (7070L, 1357908L, 147972L, 840L, 538465854),
    (606, Contiguity) -> (7070L, 1357908L, 147972L, 840L, 538465854),
    (607, AnyMatch) -> (131L, 1139L, 17L, 10L, 456891178),
    (607, NextMatch) -> (75L, 1031L, 17L, 10L, -734656043),
    (607, Contiguity) -> (147L, 899L, 15L, 10L, 178942098),
    (608, AnyMatch) -> (810L, 6391L, 121L, 27L, 1746100703),
    (608, NextMatch) -> (204L, 5055L, 115L, 27L, 1417437115),
    (608, Contiguity) -> (117L, 4143L, 124L, 27L, -251798097),
    (609, AnyMatch) -> (9405L, 55550L, 1784L, 150L, -1421401480),
    (609, NextMatch) -> (945L, 37634L, 1177L, 150L, 1655766251),
    (609, Contiguity) -> (270L, 25040L, 976L, 150L, -1962380388),
  )

  /** The entries that changed when the engine stopped creating partial
    * matches that hold an event consumed earlier in the same arrival (under
    * skip-till-next and contiguity only).
    */
  private val withoutDeadWorkOrders: Map[(Int, Strategy), Summary] = Map(
    (601, NextMatch) -> (292L, 4895L, 306L, 36L, 1624088622),
    (601, Contiguity) -> (546L, 1807L, 256L, 36L, 785951532),
    (602, NextMatch) -> (516L, 13493L, 656L, 126L, -1432847864),
    (602, Contiguity) -> (294L, 12666L, 887L, 126L, 1150504746),
    (603, NextMatch) -> (1752L, 66316L, 5110L, 696L, -721231118),
    (603, Contiguity) -> (192L, 39679L, 2741L, 696L, -369964697),
    (604, NextMatch) -> (1206L, 10327L, 910L, 120L, 1594275630),
    (604, Contiguity) -> (180L, 15534L, 1518L, 120L, -979565250),
    (605, NextMatch) -> (984L, 60443L, 3709L, 552L, 468392507),
    (606, NextMatch) -> (8080L, 1367922L, 171986L, 3000L, -1733519318),
    (606, Contiguity) -> (8080L, 1367922L, 171986L, 3000L, -1733519318),
    (607, NextMatch) -> (150L, 1314L, 24L, 38L, -400556824),
    (607, Contiguity) -> (294L, 1050L, 24L, 38L, -1220099822),
    (608, NextMatch) -> (408L, 6426L, 167L, 150L, 1904561323),
    (608, Contiguity) -> (234L, 4602L, 167L, 150L, -1048021367),
    (609, NextMatch) -> (1512L, 42126L, 1693L, 696L, 241238483),
    (609, Contiguity) -> (432L, 20474L, 1025L, 696L, 303535640),
  )
  private val withoutDeadWorkTrees: Map[(Int, Strategy), Summary] = Map(
    (601, NextMatch) -> (146L, 3364L, 296L, 17L, -1991468737),
    (601, Contiguity) -> (273L, 1529L, 248L, 17L, -1625503520),
    (602, NextMatch) -> (258L, 10208L, 476L, 39L, -664292639),
    (602, Contiguity) -> (147L, 10558L, 663L, 39L, 602550008),
    (604, NextMatch) -> (603L, 8731L, 678L, 36L, 1499181824),
    (604, Contiguity) -> (90L, 14801L, 1222L, 36L, -228230726),
    (606, NextMatch) -> (7070L, 1356123L, 147970L, 840L, 1289599240),
    (606, Contiguity) -> (7070L, 1356123L, 147970L, 840L, 1289599240),
  )

  /** Tree plans since a leaf creates instances only when it is the left leaf
    * of a leaf–leaf pair (or the whole plan) and every element is buffered:
    * the other leaves are read in place, as an order plan's later leaves are.
    */
  private val oneLeafRuleTrees: Map[(Int, Strategy), Summary] = Map(
    (601, AnyMatch) -> (2452L, 5493L, 13L, 18L, -1589186964),
    (601, NextMatch) -> (146L, 1898L, 11L, 18L, -703437644),
    (601, Contiguity) -> (273L, 645L, 9L, 18L, -632967603),
    (602, AnyMatch) -> (4347L, 13621L, 445L, 63L, -887133874),
    (602, NextMatch) -> (258L, 5933L, 278L, 63L, -1868205236),
    (602, Contiguity) -> (147L, 5214L, 393L, 63L, 2086802725),
    (603, AnyMatch) -> (24355L, 95672L, 4867L, 435L, -56460490),
    (603, NextMatch) -> (1095L, 47205L, 3976L, 435L, 1206092333),
    (603, Contiguity) -> (120L, 31349L, 2407L, 435L, -186551016),
    (604, AnyMatch) -> (17928L, 30319L, 965L, 60L, -2109436745),
    (604, NextMatch) -> (603L, 4510L, 352L, 60L, -1474582886),
    (604, Contiguity) -> (90L, 5393L, 587L, 60L, 1762094379),
    (605, AnyMatch) -> (4230L, 53118L, 2901L, 345L, -508299374),
    (605, NextMatch) -> (615L, 39661L, 2380L, 345L, 1764218483),
    (605, Contiguity) -> (15L, 29946L, 2003L, 345L, 2107873431),
    (606, AnyMatch) -> (1981734L, 4401866L, 253874L, 2625L, 50636587),
    (606, NextMatch) -> (7070L, 1088219L, 124395L, 2625L, -1895660302),
    (606, Contiguity) -> (7070L, 1088219L, 124395L, 2625L, -1895660302),
    (607, AnyMatch) -> (131L, 780L, 13L, 19L, 1110128843),
    (607, NextMatch) -> (75L, 672L, 12L, 19L, 730245752),
    (607, Contiguity) -> (147L, 540L, 12L, 19L, 995508306),
    (608, AnyMatch) -> (810L, 4508L, 86L, 75L, -2050425937),
    (608, NextMatch) -> (204L, 3172L, 81L, 75L, -165189090),
    (608, Contiguity) -> (117L, 2260L, 81L, 75L, -1519059079),
    (609, AnyMatch) -> (9405L, 45290L, 1569L, 435L, 2073062588),
    (609, NextMatch) -> (945L, 27374L, 1009L, 435L, -1299672347),
    (609, Contiguity) -> (270L, 14780L, 672L, 435L, 1539526251),
  )

  /** `got` equals the current value; a changed entry keeps the recorded
    * matches and peak buffered events, and has no more created or peak live
    * partial matches than recorded.
    */
  private def check(got: Summary, recorded: Summary, changed: Option[Summary], per: Vector[Counters]): Unit = {
    assert(got == changed.getOrElse(recorded), s"per plan: $per")
    changed.foreach { c =>
      assert(c._1 == recorded._1 && c._4 == recorded._4 && c._2 <= recorded._2 && c._3 <= recorded._3)
    }
  }

  for ((seed, n, withNeg, withKl) <- patterns; strategy <- Seq[Strategy](AnyMatch, NextMatch, Contiguity))
    test(s"golden counters: seed $seed, n=$n, neg=$withNeg, kleene=$withKl, $strategy") {
      val key = (seed, strategy)
      val (orders, trees, truncated) = counters(seed, n, withNeg, withKl, strategy)
      check(summary(orders), goldenOrders(key), withoutDeadWorkOrders.get(key), orders)
      // Tree plans: the current value, with no more created or peak live
      // partial matches than before the one leaf rule, and the same matches
      // unless the Kleene cap cut a candidate list; every plan of the pattern
      // buffers the same events.
      val got = summary(trees)
      assert(got == oneLeafRuleTrees(key), s"per plan: $trees")
      val before = withoutDeadWorkTrees.getOrElse(key, goldenTrees(key))
      assert(got._2 <= before._2 && got._3 <= before._3, s"before: $before")
      assert(truncated > 0 || got._1 == before._1, s"before: $before")
      assert((orders ++ trees).map(_._4).distinct.size == 1, s"orders: $orders trees: $trees")
    }
}
