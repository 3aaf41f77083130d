package repro.spark

import org.apache.spark.sql.{Column, DataFrame}
import org.apache.spark.sql.functions._
import repro.core._

/** Structured Streaming execution of a CEP evaluation plan: the pattern's
  * per-type sub-streams are chained through stream–stream inner joins in plan
  * order, with event-time watermarks and interval join conditions so state is
  * bounded — the "CEP pattern detection plans as Structured Streaming
  * join/window operators with optimized join ordering" dataflow.
  *
  * Spark's stream–stream join demands an equality predicate, so each side also
  * carries a coarse time bucket `⌊ts/W⌋`: the chain anchor keeps its bucket and
  * every joined sub-stream is replicated to buckets {b-1, b, b+1}. Two events
  * within W differ by at most one bucket, hence share exactly one replica key —
  * no match is lost and none is duplicated.
  *
  * Pure AND-normalized patterns (no NOT/KL). The input streaming DataFrame has
  * the batch schema [typeId, ts, serial, diff, price]; each element derives an
  * `e{i}_time` timestamp column (seconds = `ts`) for watermarking. Matches equal the batch
  * [[JoinPlanRunner]] results (asserted by tests).
  */
object StreamingRunner {

  /** [[JoinPlanRunner.elemDF]] plus a watermarked `e{i}_time` event-time
    * column and the bucket key `e{i}_bucket`; when `replicate` is set the rows
    * are exploded to the three adjacent bucket keys.
    */
  private def elemStream(
      stream: DataFrame,
      positive: SimplePattern,
      i: Int,
      delay: String,
      replicate: Boolean,
  ): DataFrame = {
    val ts = col(s"e${i}_ts")
    val bucket = floor(ts / positive.window).cast("long")
    JoinPlanRunner.elemDF(stream, positive, i)
      .withColumn(s"e${i}_time", timestamp_seconds(ts))
      .withWatermark(s"e${i}_time", delay)
      .withColumn(s"e${i}_bucket", if (replicate) explode(array(bucket - 1, bucket, bucket + 1)) else bucket)
  }

  /** Join condition between the bound element set (anchored at `anchor`) and the
    * new element `j`: bucket equality, [[JoinPlanRunner.joinCondition]]'s
    * pattern predicates and pairwise window constraints, and event-time
    * interval constraints for state cleanup.
    */
  private def condition(positive: SimplePattern, left: Set[Int], anchor: Int, j: Int): Column = {
    val iv = positive.window.toInt + 1
    val key = col(s"e${anchor}_bucket") === col(s"e${j}_bucket")
    val predsAndWindows = JoinPlanRunner.joinCondition(positive, left, Set(j)).get
    // The interval constraint references only the anchor's event-time column —
    // the intermediate keeps a single event-time attribute (the others are
    // dropped after each join), which Spark requires for chained stateful joins.
    key && predsAndWindows &&
      col(s"e${j}_time") >= col(s"e${anchor}_time") - expr(s"INTERVAL $iv SECONDS") &&
      col(s"e${j}_time") <= col(s"e${anchor}_time") + expr(s"INTERVAL $iv SECONDS")
  }

  /** The streaming match relation for an order-based plan (left-deep chain of
    * stream–stream joins), projected to per-element serial columns.
    */
  def matchesStream(stream: DataFrame, branch: PlannedBranch, delay: String = "10 seconds"): DataFrame = {
    val positive = branch.positive
    require(branch.negs.isEmpty && positive.isPure, "streaming runner supports pure patterns")
    val order = branch.plan.left
      .getOrElse(throw new IllegalArgumentException("streaming runner needs an order-based plan"))
      .order
    val anchor = order.head
    val first = elemStream(stream, positive, anchor, delay, replicate = false)
    val (joined, _) = order.tail.foldLeft((first, Set(anchor))) { case ((df, bound), j) =>
      val right = elemStream(stream, positive, j, delay, replicate = true)
      (df.join(right, condition(positive, bound, anchor, j)).drop(s"e${j}_time"), bound + j)
    }
    joined.select(positive.elems.indices.map(i => col(s"e${i}_serial")): _*)
  }
}
