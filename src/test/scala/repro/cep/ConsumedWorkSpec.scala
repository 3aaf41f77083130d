package repro.cep

import org.scalatest.funsuite.AnyFunSuite
import repro.core._
import EngineTestKit._
import scala.util.Random

/** Under a consuming strategy the engine creates no partial match that holds
  * an event an emission has already consumed: such a partial match can never
  * complete a match, so it would be dead work counted as created and live.
  */
class ConsumedWorkSpec extends AnyFunSuite {

  test("skip-till-next: after every event, no held live partial match holds a consumed event") {
    val rnd = new Random(58)
    for (iter <- 1 to 12) {
      val n = 2 + rnd.nextInt(3)
      val sp = randomPattern(rnd, n, withNeg = iter % 3 == 0, withKl = true)
      val s = randomStream(n + 1, 600, 600 * 1.5 / (3.0 * (n + 1)), rnd)
      val posN = sp.positives.size
      val order = rnd.shuffle((0 until posN).toVector)
      val engines = Seq(
        "order" -> new TreeEngine(orderBranch(sp, order, NextMatch)),
        "tree" -> new TreeEngine(treeBranch(sp, PlanOracles.enumerate((0 until posN).toVector).last, NextMatch)),
      )
      for ((family, engine) <- engines; e <- s) {
        engine.run(Vector(e))
        assert(engine.heldConsumed == 0, s"iter=$iter $family plan, after serial ${e.serial}: sp=$sp")
      }
    }
  }
}
