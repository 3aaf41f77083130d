package repro.core

/** A predicate between a negated element and a positive element of the rewritten
  * pattern. `posIdx` indexes the *positive* pattern; `negOnLeft` tells whether the
  * negated event takes the `i` side of the original pairwise predicate.
  */
final case class NegPred(posIdx: Int, op: PredOp, negOnLeft: Boolean) extends Serializable

/** Evaluation-time description of one NOT element (§5.3): the pattern is planned
  * on its positive part and the negation check is attached at the earliest point
  * where every positive element it depends on is bound. A negated element of a
  * sequence is ordered between its SEQ neighbours by the `TsLess` predicates
  * [[Rewrites.seqToAnd]] adds, which arrive here as ordinary `preds`.
  *
  * @param elem  the negated element (type info)
  * @param preds predicates between the negated event and positive elements
  */
final case class NegSpec(elem: Elem, preds: Vector[NegPred]) extends Serializable {
  /** Positive positions that must be bound before the check can run. */
  def dependsOn: Set[Int] = preds.map(_.posIdx).toSet
}

/** The pattern-class reductions of §5: SEQ→AND, Kleene closure, negation split,
  * and DNF for nested patterns. These are *planning-time* constructions — no
  * stream conversion happens (§5 preamble) — but SEQ→AND is also used by the
  * engines to normalize temporal constraints into ordinary pairwise predicates.
  */
object Rewrites {

  /** §5.1: a sequence pattern is a conjunctive pattern with `e_i.ts < e_j.ts`
    * constraints. We add the constraint for *every* ordered pair (not only
    * adjacent ones) so an out-of-order evaluation plan can prune a partial match
    * as soon as any two sequence elements are bound.
    */
  def seqToAnd(sp: SimplePattern): SimplePattern = {
    if (sp.op == AND) sp
    else {
      val n = sp.size
      def neg(i: Int) = sp.elems(i).negated
      // Positive pairs get the full transitive closure of ts constraints so an
      // out-of-order plan prunes as early as possible. A negated element is only
      // tied to its nearest positive neighbours — its position in the sequence
      // is exactly "between them" (§5.3 example), and wider pairs would delay
      // the negation check without changing semantics.
      val tsPreds = (for {
        i <- 0 until n
        j <- i + 1 until n
        if !(neg(i) && neg(j))
        keep = (!neg(i) && !neg(j)) ||
          (neg(i) && (i + 1 until n).find(!neg(_)).contains(j)) ||
          (neg(j) && (j - 1 to 0 by -1).find(!neg(_)).contains(i))
        if keep
      } yield Pred(i, j, TsLess)).toVector
      sp.copy(op = AND, preds = sp.preds ++ tsPreds)
    }
  }

  /** §6.2 strict contiguity: augment a sequence pattern with serial-adjacency
    * constraints between temporally adjacent elements.
    */
  def contiguityPreds(sp: SimplePattern): SimplePattern = {
    require(sp.op == SEQ, "strict contiguity is defined for sequence patterns")
    val adj = (0 until sp.size - 1).map(i => Pred(i, i + 1, SerialSucc))
    sp.copy(preds = sp.preds ++ adj)
  }

  /** §5.2: the effective arrival rate of the power-set type `T'` replacing
    * `KL(T)`: `2^{r·W}/W`, capped to keep Double arithmetic finite. The cap does
    * not change any argmin — the KL element dominates every product it joins.
    */
  def kleeneRate(r: Double, w: Double, cap: Double = 1e30): Double = {
    val exp = r * w
    if (exp >= 99.0) cap // 2^99 ≈ 6e29 — anything above is already "huge"
    else math.min(cap, math.pow(2.0, exp) / w)
  }

  /** §5.3: split a simple pattern into its positive part (same operator, NOT
    * elements removed, predicates among positives remapped) and one [[NegSpec]]
    * per negated element. The input is [[seqToAnd]]'s output, so a sequence's
    * order is already held in `TsLess` predicates and moves with them.
    */
  def splitNegation(sp: SimplePattern): (SimplePattern, Vector[NegSpec]) = {
    require(sp.op != SEQ, "split the negation of seqToAnd's output, whose order is held in TsLess predicates")
    val n = sp.size
    val posIdx = Array.fill(n)(-1) // original index -> positive index
    var next = 0
    for (i <- 0 until n if !sp.elems(i).negated) { posIdx(i) = next; next += 1 }
    val positives = sp.elems.filterNot(_.negated)

    val (posPreds, negPredsRaw) = sp.preds.partition(p => posIdx(p.i) >= 0 && posIdx(p.j) >= 0)
    val negs = for {
      (e, i) <- sp.elems.zipWithIndex if e.negated
    } yield {
      val myPreds = negPredsRaw.collect {
        case Pred(`i`, j, op) if posIdx(j) >= 0 => NegPred(posIdx(j), op, negOnLeft = true)
        case Pred(a, `i`, op) if posIdx(a) >= 0 => NegPred(posIdx(a), op, negOnLeft = false)
      }
      NegSpec(e, myPreds)
    }
    (sp.copy(elems = positives, preds = posPreds.map(_.remap(posIdx))), negs)
  }

  /** §5.4: convert a nested pattern to DNF — a disjunction of simple conjunctive
    * patterns. SEQ nodes contribute `ts` ordering constraints between all leaves
    * of adjacent children; global predicates are kept in the branches containing
    * both endpoints. Each returned branch is an AND pattern ready for planning.
    */
  def dnf(p: Pattern): Vector[SimplePattern] = {
    // A branch: chosen leaves (with their original in-order leaf index) plus the
    // ts-ordering pairs (original indices) induced by SEQ nodes.
    final case class Branch(leaves: Vector[(Elem, Int)], seqPairs: Vector[(Int, Int)])

    def cross(as: Vector[Branch], bs: Vector[Branch], seq: Boolean): Vector[Branch] =
      for (a <- as; b <- bs) yield {
        val extra =
          if (seq) for ((_, i) <- a.leaves; (_, j) <- b.leaves) yield (i, j)
          else Vector.empty
        Branch(a.leaves ++ b.leaves, a.seqPairs ++ b.seqPairs ++ extra)
      }

    def walk(node: PatternNode, firstLeaf: Int): (Vector[Branch], Int) = node match {
      case LeafNode(e) => (Vector(Branch(Vector((e, firstLeaf)), Vector.empty)), firstLeaf + 1)
      case OpNode(op, children) =>
        var idx = firstLeaf
        val perChild = children.map { c =>
          val (bs, next) = walk(c, idx)
          idx = next
          bs
        }
        val acc = op match {
          case OR  => perChild.flatten
          case AND => perChild.reduce(cross(_, _, seq = false))
          case SEQ => perChild.reduce(cross(_, _, seq = true))
        }
        (acc, idx)
    }

    val (branches, _) = walk(p.root, 0)
    branches.map { b =>
      val origIdx = b.leaves.map(_._2)
      val remap = origIdx.zipWithIndex.toMap // original leaf idx -> branch position
      val kept = p.preds.collect {
        case pr if remap.contains(pr.i) && remap.contains(pr.j) => pr.remap(remap)
      }
      val tsPreds = b.seqPairs.map { case (i, j) => Pred(remap(i), remap(j), TsLess) }
      SimplePattern(AND, b.leaves.map(_._1), kept ++ tsPreds, p.window)
    }
  }
}
