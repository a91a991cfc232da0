package ir

// Sparse conditional constant propagation (Wegman–Zadeck) over the SSA
// def-use graph, with the standard ⊤/const/⊥ lattice and
// executable-edge tracking. The pass is the first analysis in the
// stack that is deliberately *stronger* than the bv rewrite layer's
// term-level constant folding: a loop-carried constant (x = 0;
// loop { x = x & 7; }) survives as a non-trivial phi that the encoder
// must widen to a fresh variable, while SCCP's meet over executable
// in-edges resolves it. Folding such a value to OpConst therefore
// *sharpens* the encoding — branch conditions fold, the reachability
// of dead regions folds to constant false, and the guarded ∆ terms of
// code behind them become vacuous — in exactly the way a real
// optimizing compiler would fold before STACK's algorithms run.
//
// Contract (enforced by FuzzSCCPDifferential and the sweep gate):
//
//   - C*-semantics preserving: every transmuted value is replaced by
//     the constant the concrete evaluator (exec.go) would compute, so
//     Exec on the rewritten function agrees with the original on all
//     inputs. Arithmetic folds with the same wrap-around masking as
//     exec.go and the bv layer's evalConstBinary.
//   - UB-carrying operations (signed add/sub/mul/neg) fold only when
//     the UB predicate is concretely false on the constants. In that
//     case the legacy pipeline's ¬U term folds to constant true and is
//     dropped from ∆ as vacuous, so removing the condition with the
//     instruction leaves the assumption byte-identical. An op whose UB
//     fires on constants keeps its instruction and its (falsified)
//     condition — the checker must see it.
//   - Division, remainder, and shifts never fold: their concrete
//     semantics are architecture-dependent (§2.1) and their UB
//     conditions must survive to the solver.
//   - Pointer-typed operations (OpPtrAdd, OpIndexAddr, OpGlobal,
//     OpString) never fold: addresses are machine-dependent.
//   - The CFG is never mutated. Unreachable blocks are only counted;
//     their reachability terms fold downstream of the transmuted
//     branch conditions, which is how constant-decidable queries die
//     before blasting.
//   - Transmutation is in place (v.Op = OpConst), preserving the
//     value's identity, instruction position, and source position, so
//     report anchors (firstAnchor, blockPos) are stable.
//   - Width-1 values never transmute: the simplification algorithm
//     creates one report site per OpICmp instruction and traces
//     boolean use chains, so folding a comparison would delete a site
//     the legacy pipeline queries. The comparison's *operands* still
//     fold, which lets the rewrite layer decide the site's encoding
//     exactly as it would have for rewrite-visible constants.
//   - Origin parity: the checker's deepOrigin walk skips OpConst
//     operands without reading their Origin, so transmuting a value
//     whose definition tree carries a macro origin would hide that
//     origin from report filtering. Such values are left untouched
//     (checked with the same bounded walk, sccpOrigin). The check
//     stays exact in one ordered pass: any operand already transmuted
//     passed its own guard at full depth, so its subtree is known
//     origin-free and skipping it loses nothing.

// SCCPStats reports what one SCCP invocation did. Sharpened counts the
// facts only the optimistic lattice iteration could prove — a fold
// whose operands were not all constant instructions already (phis and
// selects resolved over executable edges, and everything tainted by
// one), plus branch conditions whose constness rests on such a fact.
// When Sharpened is zero, every transmutation was of an operation over
// already-constant operands, which the bv rewrite layer folds to the
// very same interned term during encoding — so the pass provably
// changed no encoding and the checker's output is byte-identical to
// the legacy pipeline's. The differential fuzz oracle keys on this.
type SCCPStats struct {
	FoldedValues      int // values transmuted to OpConst
	FoldedBranches    int // CondBr conditions proven constant
	UnreachableBlocks int // blocks with no executable in-edge
	Sharpened         int // lattice-only facts (beyond rewrite folding)
}

type sccpLat uint8

const (
	latTop sccpLat = iota // no evidence yet
	latConst
	latBottom // overdefined
)

type sccpVal struct {
	state sccpLat
	val   uint64 // masked to the value's width
}

func sccpMeet(a, b sccpVal) sccpVal {
	switch {
	case a.state == latTop:
		return b
	case b.state == latTop:
		return a
	case a.state == latConst && b.state == latConst && a.val == b.val:
		return a
	}
	return sccpVal{state: latBottom}
}

// SCCP runs the analysis over f and transmutes proven-constant values
// in executable blocks to OpConst in place. The dominator tree stays
// valid (no CFG changes).
//
// All per-value and per-block state lives in slices sized once per
// call: the lattice and the sharpening marks are indexed by Value.ID,
// block executability by Block.ID, and edge executability by in-edge
// slot (see sccpState). This relies on the ID invariant of
// Func.NewValueID: value IDs are unique within f and at most its last
// allocated ID, and every Block.ID is the block's index in f.Blocks.
func SCCP(f *Func) SCCPStats {
	s := &sccpState{
		lat:      make([]sccpVal, f.numValueIDs()),
		blkExec:  make([]bool, len(f.Blocks)),
		edgeBase: make([]int32, len(f.Blocks)+1),
		uses:     NewDefUse(f),
		flowWL:   make([][2]*Block, 0, 2*len(f.Blocks)),
	}
	for i, b := range f.Blocks {
		s.edgeBase[i+1] = s.edgeBase[i] + int32(len(b.Preds))
	}
	s.edgeExec = make([]bool, s.edgeBase[len(f.Blocks)])
	// Straight-line code lowers each value once, waking each use once.
	s.ssaWL = make([]*Value, 0, s.uses.NumUses())
	// Parameters are opaque inputs and may not appear in any block's
	// instruction list; seed them overdefined so conditions that depend
	// on them reach ⊥ (and release both branch edges) rather than
	// resting at ⊤.
	for _, p := range f.Params {
		s.lat[p.ID] = sccpVal{state: latBottom}
	}
	if f.Entry != nil {
		s.markBlock(f.Entry)
	}
	for len(s.flowWL) > 0 || len(s.ssaWL) > 0 {
		for len(s.ssaWL) > 0 {
			v := s.ssaWL[len(s.ssaWL)-1]
			s.ssaWL = s.ssaWL[:len(s.ssaWL)-1]
			if s.blkExec[v.Block.ID] {
				s.visit(v)
			}
		}
		for len(s.flowWL) > 0 {
			e := s.flowWL[len(s.flowWL)-1]
			s.flowWL = s.flowWL[:len(s.flowWL)-1]
			s.markEdge(e[0], e[1])
		}
	}

	var st SCCPStats
	// sharp marks transmuted values whose constant was a lattice-only
	// fact; taint spreads through operands so that a branch condition
	// resting on one is recognized as sharpened too. Because the pass
	// transmutes in instruction order, an operand that is OpConst here
	// is either an original constant or an already-classified fold.
	sharp := make([]bool, f.numValueIDs())
	latticeOnly := func(v *Value) bool {
		if v.Op == OpPhi || v.Op == OpSelect {
			return true // resolved via executable-edge pruning
		}
		for _, a := range v.Args {
			if a.Op != OpConst || sharp[a.ID] {
				return true
			}
		}
		return false
	}
	for _, b := range f.Blocks {
		if !s.blkExec[b.ID] {
			st.UnreachableBlocks++
			continue
		}
		for _, v := range b.Instrs {
			lv := s.lat[v.ID]
			if lv.state != latConst || v.Op == OpConst || v.Width <= 1 {
				continue
			}
			if sccpOrigin(v, 4) != "" {
				continue // origin parity: see package comment
			}
			if latticeOnly(v) {
				sharp[v.ID] = true
				st.Sharpened++
			}
			v.Op = OpConst
			v.Aux = int64(lv.val)
			v.Aux2 = 0
			v.AuxName = ""
			v.Signed = false
			v.Args = nil
			st.FoldedValues++
		}
		if b.Term != nil && b.Term.Op == OpCondBr {
			cond := b.Term.Args[0]
			if c := s.lat[cond.ID]; c.state == latConst {
				st.FoldedBranches++
				// The condition itself never transmutes (width 1);
				// its constness is sharpening when it rests on a
				// lattice-only fact rather than on operands the
				// rewrite layer folds.
				if latticeOnly(cond) {
					st.Sharpened++
				}
			}
		}
	}
	return st
}

// sccpState is the analysis state of one SCCP call. The in-edges of
// block b own the slots edgeExec[edgeBase[b.ID]:edgeBase[b.ID+1]], one
// per entry of b.Preds. An edge that appears twice in b.Preds (a
// CondBr whose successors are both b) is still one CFG edge: marking
// it sets every slot whose predecessor is its source.
type sccpState struct {
	lat      []sccpVal // by Value.ID
	blkExec  []bool    // by Block.ID
	edgeExec []bool    // by in-edge slot
	edgeBase []int32   // by Block.ID: the block's first in-edge slot
	uses     DefUse
	flowWL   [][2]*Block
	ssaWL    []*Value
}

// argLat is the lattice value of v's i-th operand. A nil phi operand
// (RemoveUnreachableBlocks leaves one where a phi had fewer operands
// than predecessors) reads ⊤.
func (s *sccpState) argLat(v *Value, i int) sccpVal {
	if a := v.Args[i]; a != nil {
		return s.lat[a.ID]
	}
	return sccpVal{}
}

// markEdge makes the CFG edge from→to executable, evaluating to's
// instructions on first visit and re-evaluating its phis otherwise
// (the new edge can lower a phi's meet).
func (s *sccpState) markEdge(from, to *Block) {
	slots := s.edgeExec[s.edgeBase[to.ID]:s.edgeBase[to.ID+1]]
	for k, p := range to.Preds {
		if p == from {
			if slots[k] {
				return
			}
			slots[k] = true
		}
	}
	if s.blkExec[to.ID] {
		for _, v := range to.Instrs {
			if v.Op == OpPhi {
				s.visit(v)
			}
		}
		return
	}
	s.markBlock(to)
}

func (s *sccpState) markBlock(b *Block) {
	if s.blkExec[b.ID] {
		return
	}
	s.blkExec[b.ID] = true
	for _, v := range b.Instrs {
		s.visit(v)
	}
	s.visitTerm(b)
}

// lower moves v's lattice value down to nv if it changed, waking v's
// users and, when a terminator consumes v, the terminator's block.
func (s *sccpState) lower(v *Value, nv sccpVal) {
	old := s.lat[v.ID]
	if old.state == nv.state && (nv.state != latConst || old.val == nv.val) {
		return
	}
	if old.state == latBottom || nv.state == latTop {
		return // monotone: never climb back up
	}
	if old.state == latConst && nv.state == latConst {
		nv = sccpVal{state: latBottom} // disagreeing constants
	}
	s.lat[v.ID] = nv
	for _, u := range s.uses.Users(v) {
		if u.IsTerminator() {
			if s.blkExec[u.Block.ID] {
				s.visitTerm(u.Block)
			}
			continue
		}
		s.ssaWL = append(s.ssaWL, u)
	}
}

func (s *sccpState) visitTerm(b *Block) {
	t := b.Term
	if t == nil {
		return
	}
	switch t.Op {
	case OpBr:
		s.flowWL = append(s.flowWL, [2]*Block{b, b.Succs[0]})
	case OpCondBr:
		c := s.lat[t.Args[0].ID]
		switch c.state {
		case latConst:
			if c.val != 0 {
				s.flowWL = append(s.flowWL, [2]*Block{b, b.Succs[0]})
			} else {
				s.flowWL = append(s.flowWL, [2]*Block{b, b.Succs[1]})
			}
		case latBottom:
			s.flowWL = append(s.flowWL, [2]*Block{b, b.Succs[0]}, [2]*Block{b, b.Succs[1]})
		}
		// latTop: no evidence yet; the terminator re-runs when the
		// condition's lattice value lowers.
	}
}

func (s *sccpState) visit(v *Value) {
	s.lower(v, s.eval(v))
}

func sccpMask(x uint64, w int) uint64 {
	if w >= 64 {
		return x
	}
	return x & (1<<uint(w) - 1)
}

func sccpSignBit(x uint64, w int) bool {
	return x&(1<<uint(w-1)) != 0
}

func sccpSExt(x uint64, w int) int64 {
	if w >= 64 {
		return int64(x)
	}
	if sccpSignBit(x, w) {
		return int64(x | ^uint64(0)<<uint(w))
	}
	return int64(x)
}

func (s *sccpState) eval(v *Value) sccpVal {
	bottom := sccpVal{state: latBottom}
	argLat := func(i int) sccpVal { return s.argLat(v, i) }
	w := v.Width

	switch v.Op {
	case OpConst:
		return sccpVal{state: latConst, val: sccpMask(uint64(v.Aux), w)}

	case OpPhi:
		r := sccpVal{state: latTop}
		in := s.edgeExec[s.edgeBase[v.Block.ID]:]
		for i := range v.Block.Preds {
			if !in[i] {
				continue
			}
			r = sccpMeet(r, argLat(i))
			if r.state == latBottom {
				break
			}
		}
		return r

	case OpSelect:
		c := argLat(0)
		switch c.state {
		case latTop:
			return sccpVal{state: latTop}
		case latConst:
			if c.val != 0 {
				return argLat(1)
			}
			return argLat(2)
		}
		return sccpMeet(argLat(1), argLat(2))
	}

	// Remaining folds need every operand constant.
	for i := range v.Args {
		switch argLat(i).state {
		case latTop:
			return sccpVal{state: latTop}
		case latBottom:
			return bottom
		}
	}

	konst := func(x uint64) sccpVal {
		return sccpVal{state: latConst, val: sccpMask(x, w)}
	}

	switch v.Op {
	case OpAdd, OpSub, OpMul, OpNeg:
		x := sccpMask(argLat(0).val, w)
		y := uint64(0)
		if len(v.Args) > 1 {
			y = sccpMask(argLat(1).val, w)
		}
		var raw uint64
		switch v.Op {
		case OpAdd:
			raw = x + y
		case OpSub:
			raw = x - y
		case OpNeg:
			raw = -x
		case OpMul:
			raw = x * y
		}
		if v.Signed && sccpSignedOverflows(v.Op, x, y, raw, w) {
			return bottom // UB fires: the checker must see the op
		}
		return konst(raw)

	case OpAnd:
		return konst(argLat(0).val & argLat(1).val)
	case OpOr:
		return konst(argLat(0).val | argLat(1).val)
	case OpXor:
		return konst(argLat(0).val ^ argLat(1).val)
	case OpNot:
		return konst(^argLat(0).val)

	case OpZExt:
		return konst(sccpMask(argLat(0).val, v.Args[0].Width))
	case OpSExt:
		return konst(uint64(sccpSExt(argLat(0).val, v.Args[0].Width)))
	case OpTrunc:
		return konst(argLat(0).val)

	case OpICmp:
		aw := v.Args[0].Width
		x, y := sccpMask(argLat(0).val, aw), sccpMask(argLat(1).val, aw)
		var t bool
		switch v.Pred() {
		case CmpEq:
			t = x == y
		case CmpNe:
			t = x != y
		case CmpULT:
			t = x < y
		case CmpULE:
			t = x <= y
		case CmpSLT:
			t = sccpSExt(x, aw) < sccpSExt(y, aw)
		case CmpSLE:
			t = sccpSExt(x, aw) <= sccpSExt(y, aw)
		default:
			return bottom
		}
		if t {
			return sccpVal{state: latConst, val: 1}
		}
		return sccpVal{state: latConst, val: 0}
	}

	// Loads, calls, params, globals, unknowns, pointer arithmetic,
	// division/remainder, shifts: overdefined by design (see the
	// contract above).
	return bottom
}

// sccpSignedOverflows reports whether the signed operation op on
// masked constant operands x, y overflows width w — the Fig. 3
// signed-overflow UB predicate, evaluated concretely.
func sccpSignedOverflows(op Op, x, y, raw uint64, w int) bool {
	wrapped := sccpMask(raw, w)
	switch op {
	case OpAdd:
		sx, sy := sccpSignBit(x, w), sccpSignBit(y, w)
		return sx == sy && sccpSignBit(wrapped, w) != sx
	case OpSub:
		sx, sy := sccpSignBit(x, w), sccpSignBit(y, w)
		return sx != sy && sccpSignBit(wrapped, w) != sx
	case OpNeg:
		return x == sccpMask(1<<uint(w-1), w) && x != 0
	case OpMul:
		sx, sy := sccpSExt(x, w), sccpSExt(y, w)
		if sx == 0 || sy == 0 {
			return false
		}
		if sx == -1 && sy == -1<<63 {
			return true // -MinInt64 overflows int64 (and any narrower width)
		}
		prod := sx * sy
		if prod/sx != sy { // overflowed 64 bits
			return true
		}
		return sccpSExt(sccpMask(uint64(prod), w), w) != prod
	}
	return false
}

// sccpOrigin mirrors the checker's deepOrigin walk (bounded depth,
// OpConst operands skipped). A value is only transmuted when this
// returns "", so the origins report filtering can see through argument
// walks are unchanged by the pass.
func sccpOrigin(v *Value, depth int) string {
	if v.Origin != "" {
		return v.Origin
	}
	if depth == 0 {
		return ""
	}
	for _, a := range v.Args {
		if a.Op == OpConst {
			continue
		}
		if o := sccpOrigin(a, depth-1); o != "" {
			return o
		}
	}
	return ""
}
