package ir

// Loop-invariant UB hoisting: natural loops are detected from the
// dominator tree plus the DFS back edges, and loop-invariant
// UB-carrying computations in the loop *header* are moved to the
// preheader, so one solver query covers all iterations. In the
// checker, a hoisted condition's block dominates every block of the
// loop, so its ∆ contribution switches from the guarded form
// Or(¬R'_d, ¬U_d) — where R'_d is a loop reachability that the encoder
// widens through back edges into fresh booleans — to the plain ¬U_d of
// eq. (5) for every query inside the loop. That is both sharper (the
// widened guard made the term nearly vacuous to the solver) and
// cheaper (the widened reachability's cone is never pulled into ∆).
//
// Safety argument, pinned by the exec-differential fuzz oracle
// (semantics-preserving, precision-sharpening — the same contract as
// mem2reg):
//
//   - Only values in the loop header are hoisted, and only when the
//     preheader's single successor is the header. The header executes
//     at least once whenever the preheader executes, so the hoisted
//     instruction runs iff it ran before; with loop-invariant operands
//     it computes the same value every iteration, so both the result
//     and the concrete UB predicate are unchanged. (For a `for` or
//     `while` loop the header holds only the exit test, so in practice
//     this fires on do-while-shaped loops, where the body top is the
//     back-edge target.)
//   - Operands must be defined outside the loop, themselves already
//     hoisted (processing in instruction order keeps chains legal), or
//     a header phi that is a loop-carried copy of one outside value —
//     the hoisted user then reads that value directly (loopPhiBypass).
//   - Memory operations, calls, comparisons, and width-1 values never
//     move: loads/stores are ordered, OpICmp placement determines the
//     checker's per-site reachability, and boolean chains feed the
//     sinks-only-to-folded-branches analysis.
//   - The block's report anchor signature is preserved: the anchor
//     instruction only moves when the next position-carrying value
//     reports the same position and origin, so blockPos/blockOrigin
//     cannot change.
//   - The CFG is untouched: no preheader is ever created, only an
//     existing one is used.

// HoistLoopInvariantUB hoists loop-invariant UB-carrying computations
// from loop headers into their preheaders. Returns the number of
// UB-condition-carrying values hoisted and the total number of values
// moved (pure non-UB feeders hoisted to keep a chain legal count only
// toward the latter — any move at all means the pass sharpened the
// encoding, which the differential fuzz oracle keys on).
func HoistLoopInvariantUB(f *Func, dom *DomTree) (ubTerms, moved int) {
	back := BackEdges(f)
	if len(back) == 0 {
		return 0, 0
	}
	// Natural loop per header: all blocks that reach a back edge's tail
	// without passing through the header.
	loops := map[*Block]map[*Block]bool{}
	for e := range back {
		tail, head := e[0], e[1]
		if !dom.Dominates(head, tail) {
			continue // irreducible edge: not a natural loop
		}
		body := loops[head]
		if body == nil {
			body = map[*Block]bool{head: true}
			loops[head] = body
		}
		var stack []*Block
		if !body[tail] {
			body[tail] = true
			stack = append(stack, tail)
		}
		for len(stack) > 0 {
			b := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			for _, p := range b.Preds {
				if !body[p] {
					body[p] = true
					stack = append(stack, p)
				}
			}
		}
	}

	for _, head := range f.Blocks { // deterministic loop order
		body := loops[head]
		if body == nil {
			continue
		}
		// Preheader: the unique predecessor outside the loop, and it
		// must fall through unconditionally so that entering it implies
		// entering the loop.
		var pre *Block
		for _, p := range head.Preds {
			if body[p] {
				continue
			}
			if pre != nil {
				pre = nil
				break
			}
			pre = p
		}
		if pre == nil || pre.Term == nil || pre.Term.Op != OpBr {
			continue
		}
		anchor := firstAnchor(head)
		move := func(v *Value, subst []*Value) {
			for i, x := range subst {
				if x != nil {
					v.Args[i] = x
				}
			}
			v.Block = pre
			pre.Instrs = append(pre.Instrs, v)
			moved++
			if gvnCarriesUBCond(v) {
				ubTerms++
			}
		}
		kept := head.Instrs[:0]
		for _, v := range head.Instrs {
			subst, inv := invariantArgs(v, head, body)
			if v == anchor || !hoistable(v) || !inv {
				kept = append(kept, v)
				continue
			}
			move(v, subst)
		}
		head.Instrs = kept
		// The anchor itself may move only when the block's report
		// anchor signature survives: the next position-carrying value
		// (or the terminator) must report the same position and origin,
		// so blockPos/blockOrigin are unchanged. Decided last so that
		// values moved above never depended on it.
		if anchor != nil && hoistable(anchor) {
			subst, inv := invariantArgs(anchor, head, body)
			var next *Value
			for v := range head.All() {
				if v != anchor && v.Pos.IsValid() {
					next = v
					break
				}
			}
			if inv && next != nil && next.Pos == anchor.Pos && next.Origin == anchor.Origin {
				kept = head.Instrs[:0]
				for _, v := range head.Instrs {
					if v != anchor {
						kept = append(kept, v)
					}
				}
				head.Instrs = kept
				move(anchor, subst)
			}
		}
	}
	return ubTerms, moved
}

// hoistable: pure computations only, no comparisons or boolean chain
// members, and nothing whose concrete semantics are block-dependent.
// Division stays put — its trap behavior is architecture-dependent
// (§2.1) and moving the trap point would be observable. OpConst is
// included as a chain feeder: the frontend materializes literals next
// to their use, so an invariant `a * 3` in a header is blocked on the
// in-loop constant unless the constant moves first (in instruction
// order, so the chain stays def-before-use in the preheader).
func hoistable(v *Value) bool {
	switch v.Op {
	case OpConst,
		OpAdd, OpSub, OpMul, OpNeg,
		OpAnd, OpOr, OpXor, OpNot,
		OpShl, OpLShr, OpAShr,
		OpZExt, OpSExt, OpTrunc,
		OpPtrAdd, OpIndexAddr:
	default:
		return false
	}
	if v.Width <= 1 {
		return false
	}
	for _, a := range v.Args {
		if a.Width <= 1 {
			return false
		}
	}
	return true
}

// invariantArgs decides whether every operand of v is loop-invariant:
// defined outside the loop (values hoisted earlier already have their
// Block repointed at the preheader), or a header phi that merely
// carries a single outside value around the loop (see loopPhiBypass).
// For bypassed operands, subst holds the outside value the hoisted
// instruction must read instead — the phi stays in the header but is
// not computed yet when the preheader runs.
func invariantArgs(v *Value, head *Block, body map[*Block]bool) (subst []*Value, ok bool) {
	for i, a := range v.Args {
		if a.Block == nil || !body[a.Block] {
			continue
		}
		x := loopPhiBypass(a, head, body)
		if x == nil {
			return nil, false
		}
		if subst == nil {
			subst = make([]*Value, len(v.Args))
		}
		subst[i] = x
	}
	return subst, true
}

// loopPhiBypass: a phi in the loop header whose operands are all the
// phi itself or one single value defined outside the loop is a
// loop-carried copy of that value (the builder's trivial self-phis for
// variables the loop never writes survive mem2reg's alias forwarding in
// this shape). The phi always equals the outside value, so a hoisted
// user may read the value directly.
func loopPhiBypass(a *Value, head *Block, body map[*Block]bool) *Value {
	if a.Op != OpPhi || a.Block != head {
		return nil
	}
	var out *Value
	for _, x := range a.Args {
		if x == a {
			continue
		}
		if x.Block != nil && body[x.Block] {
			return nil
		}
		if out == nil {
			out = x
		} else if out != x {
			return nil
		}
	}
	return out
}
