package repro.data

import org.scalatest.funsuite.AnyFunSuite
import repro.core._
import scala.util.Random

/** Exactness of the measured-statistics arithmetic: selection, the index
  * sampler and the merged selectivity count give bit for bit what a full sort,
  * `java.util.Random` and one binary search per sample give.
  */
class MeasuredStatsProviderSpec extends AnyFunSuite {
  import MeasuredStatsProviderSpec._

  private def bits(d: Double): Long = java.lang.Double.doubleToRawLongBits(d)

  /** Values with many duplicates, both zeros and a few distinct values. */
  private def tieHeavy(rnd: Random, len: Int): Array[Double] = {
    val pool = Array(-2.0, -1.0, -0.0, 0.0, 0.0, 1.0, 2.5, Double.MinPositiveValue)
    Array.fill(len)(if (rnd.nextInt(4) == 0) rnd.nextGaussian() else pool(rnd.nextInt(pool.length)))
  }

  private def sortedGaussians(rnd: Random, len: Int): Array[Double] = {
    val a = Array.fill(len)(math.rint(rnd.nextGaussian() * 64) / 64) // coarse grid: ties across arrays
    java.util.Arrays.sort(a)
    a
  }

  private def provider(diffs: Map[Int, Array[Double]]): MeasuredStatsProvider =
    new MeasuredStatsProvider(diffs.map { case (t, _) => t -> 1.0 }, diffs, 1.0, diffs.size.toDouble)

  test("select returns what Arrays.sort leaves at every rank, bit for bit") {
    val rnd = new Random(17)
    val inputs = (1 to 60).map(len => tieHeavy(rnd, len)) ++ Seq(
      Array.tabulate(40)(_.toDouble),                 // sorted
      Array.tabulate(40)(i => (40 - i).toDouble),     // reversed
      Array.fill(33)(0.0),                            // all equal
      Array.tabulate(50)(i => if (i % 2 == 0) 0.0 else -0.0),
      Array(Double.NegativeInfinity, 1.0, Double.PositiveInfinity, -0.0, 0.0),
    )
    inputs.foreach { a =>
      val sorted = a.clone(); java.util.Arrays.sort(sorted)
      a.indices.foreach { q =>
        val got = MeasuredStatsProvider.select(a.clone(), q)
        assert(bits(got) == bits(sorted(q)), s"rank $q of ${a.mkString(",")}: got $got want ${sorted(q)}")
      }
    }
    val big = tieHeavy(rnd, 4000)
    val sorted = big.clone(); java.util.Arrays.sort(sorted)
    Seq(0, 1, 1999, 2000, 3998, 3999).foreach(q => assert(bits(MeasuredStatsProvider.select(big.clone(), q)) == bits(sorted(q))))
  }

  test("the sampler draws java.util.Random's nextInt sequence") {
    val bounds = Seq(1, 2, 3, 7, 64, 1024, 1999, 2000, 1 << 30, (1 << 30) + 1, Int.MaxValue / 3 * 2,
      Int.MaxValue - 1, Int.MaxValue)
    val seedRnd = new Random(99)
    (Seq(0L, 1L, -1L, 42L, Long.MinValue, Long.MaxValue) ++ Seq.fill(80)(seedRnd.nextLong())).foreach { seed =>
      val lcg = new MeasuredStatsProvider.Lcg(seed)
      val jdk = new java.util.Random(seed)
      (0 until 400).foreach { k =>
        val b = bounds(k % bounds.size)
        assert(lcg.nextInt(b) == jdk.nextInt(b), s"seed $seed draw $k bound $b")
      }
    }
  }

  test("the merged AttrCmp count equals one binary search per sample") {
    val rnd = new Random(23)
    (0 until 60).foreach { round =>
      val xs = sortedGaussians(rnd, 1 + rnd.nextInt(300))
      val ys = if (round % 7 == 0) xs else sortedGaussians(rnd, 1 + rnd.nextInt(300))
      val p = provider(Map(0 -> xs, 1 -> ys))
      val shifts = Seq(0.0, -0.0, 1e-9, Double.PositiveInfinity, Double.NegativeInfinity, rnd.nextGaussian() * 2,
        ys(rnd.nextInt(ys.length)) - xs(rnd.nextInt(xs.length))) // an exact tie x + shift = y
      for (shift <- shifts; less <- Seq(true, false)) {
        val got = p.predSelectivity(Elem(0, "a"), Elem(1, "b"), AttrCmp(0, shift, less))
        assert(bits(got) == bits(binarySearchSelectivity(xs, ys, shift, less)), s"round $round shift $shift less $less")
      }
    }
  }

  test("shiftForTargetSelectivity equals the sort-based quantile, bit for bit") {
    val rnd = new Random(31)
    val diffs = Map(0 -> sortedGaussians(rnd, 2000), 1 -> sortedGaussians(rnd, 1), 2 -> sortedGaussians(rnd, 777),
      3 -> Array(-0.0, 0.0, 0.0), 4 -> sortedGaussians(rnd, 1024))
    val p = provider(diffs)
    for (a <- diffs.keys; b <- diffs.keys; target <- Seq(0.0, 0.01, 0.2, 0.5, 0.8, 1.0)) {
      val seed = rnd.nextLong()
      val got = p.shiftForTargetSelectivity(a, b, target, seed)
      val want = sortShift(diffs(a), diffs(b), target, seed)
      assert(bits(got) == bits(want), s"types $a,$b target $target seed $seed")
    }
  }

  test("unsorted difference samples are rejected at construction") {
    val e = intercept[IllegalArgumentException](provider(Map(0 -> Array(0.5, 1.0), 3 -> Array(1.0, 2.0, 0.5))))
    assert(e.getMessage.contains("type 3"))
    provider(Map(0 -> Array(-0.0, 0.0, 0.0, 1.0), 1 -> Array.empty[Double], 2 -> Array(3.0)))
  }
}

/** The sort- and binary-search-based measurements, kept as oracles. */
object MeasuredStatsProviderSpec {

  /** P(x + shift < y) by one binary search per x over sorted `ys`, clamped and
    * complemented as `MeasuredStatsProvider.predSelectivity` specifies.
    */
  def binarySearchSelectivity(xs: Array[Double], ys: Array[Double], shift: Double, less: Boolean): Double = {
    var hits = 0L
    var i = 0
    while (i < xs.length) {
      val t = xs(i) + shift
      var lo = 0; var hi = ys.length
      while (lo < hi) { val m = (lo + hi) >>> 1; if (ys(m) <= t) lo = m + 1 else hi = m }
      hits += ys.length - lo
      i += 1
    }
    val p = hits.toDouble / (xs.length.toDouble * ys.length)
    val pLess = math.max(1e-4, math.min(1.0 - 1e-4, p))
    if (less) pLess else 1.0 - pLess
  }

  /** The quantile at 1 − target of 4000 sampled differences y − x, read from a
    * full sort.
    */
  def sortShift(xs: Array[Double], ys: Array[Double], target: Double, seed: Long): Double = {
    val rnd = new scala.util.Random(seed)
    val m = 4000
    val ds = new Array[Double](m)
    var k = 0
    while (k < m) { ds(k) = ys(rnd.nextInt(ys.length)) - xs(rnd.nextInt(xs.length)); k += 1 }
    java.util.Arrays.sort(ds)
    ds(math.max(0, math.min(m - 1, math.round((1.0 - target) * (m - 1)).toInt)))
  }
}
