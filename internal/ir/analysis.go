package ir

// SSA-form analyses run by the checker before encoding: global value
// numbering and dead-store elimination. Both are deliberately
// conservative — the checker's output with them enabled must stay
// byte-identical to the legacy pipeline across the sweep corpus
// (TestSSAVsLegacyByteIdentity) — so every rule below is justified
// against how internal/core consumes the IR:
//
//   - Report positions anchor at a block's first position-carrying
//     instruction, so neither pass removes that anchor instruction
//     (GVN keeps it in place and only redirects its uses).
//   - The well-defined-program assumption ∆ deduplicates UB-condition
//     terms by interned term identity, keeping the first condition in
//     block order. GVN therefore only merges a value into a
//     representative that precedes it in the same block: the victim's
//     conditions encode to the very terms the representative's
//     conditions already produced, so the deduplicated assumption list
//     (and every solver query) is unchanged.
//   - Origin metadata feeds macro/inline report filtering through
//     transitive argument walks, so GVN requires the representative
//     and victim to carry the same origin.
//   - simplify() creates one site per OpICmp instruction and traces
//     boolean (width-1) use chains, so comparisons are never merged
//     and no candidate may consume a width-1 operand.
//
// Value numbering is structural: two instructions are congruent when
// they have the same operation, width, signedness, auxiliary fields,
// and identical (already-renumbered) operands in order. This is
// exactly the equivalence the bv builder's hash-consing assigns to
// their encodings, computed before encoding happens — term interning
// as a value-numbering oracle, under-approximated by not modeling the
// rewrite rules (a rewrite can merge terms whose UB side conditions
// differ, which ∆ must keep apart).

// PassStats aggregates what one RunSSAPasses invocation did. Every
// pass registered in RunSSAPasses surfaces at least one counter here;
// scripts/invariants.sh enforces that each counter reaches core.Stats
// and that each pass has a differential oracle.
type PassStats struct {
	PromotedAllocas  int
	PlacedPhis       int
	EliminatedLoads  int
	EliminatedStores int
	GVNHits          int

	SCCPFoldedValues      int
	SCCPFoldedBranches    int
	SCCPUnreachableBlocks int
	CrossBlockGVNHits     int
	HoistedUBTerms        int

	// Sharpening indicators, used by the differential oracles: facts
	// only the optimistic SCCP iteration could prove (beyond the bv
	// rewrite layer's reach) and the total number of instructions
	// hoisting moved. When promotion, store elimination, these, and
	// HoistedValues are all zero, the pass stack provably changed no
	// encoding and the checker's output is byte-identical to the
	// legacy pipeline's.
	SCCPSharpened int
	HoistedValues int
}

// Sharpening reports whether any pass transformed the function beyond
// what the encoding layer's rewrite rules would have seen through —
// i.e. whether byte-identical checker output versus the legacy
// pipeline is still guaranteed (false) or only semantic equivalence is
// (true). The differential fuzz oracles key their strictness on this.
func (ps PassStats) Sharpening() bool {
	return ps.PromotedAllocas > 0 || ps.EliminatedStores > 0 ||
		ps.EliminatedLoads > 0 || ps.SCCPSharpened > 0 || ps.HoistedValues > 0
}

// RunSSAPasses runs the SSA pass stack over f: mem2reg promotion of
// non-escaping allocas (ssa.go), then sparse conditional constant
// propagation (sccp.go) over the promoted form, then dominator-ordered
// value numbering, dead-store elimination, and loop-invariant UB
// hoisting (licm.go). dom must be f's dominator tree; the passes
// change no blocks or edges, so it stays valid. UB-condition insertion
// and encoding must happen after this.
func RunSSAPasses(f *Func, dom *DomTree) PassStats {
	m2r := PromoteAllocas(f, dom)
	sccp := SCCP(f)
	sameGVN, crossGVN := GVN(f, dom)
	dse := DSE(f)
	hoistedUB, hoistedAll := HoistLoopInvariantUB(f, dom)
	return PassStats{
		PromotedAllocas:  m2r.PromotedAllocas,
		PlacedPhis:       m2r.PlacedPhis,
		EliminatedLoads:  m2r.RemovedLoads,
		EliminatedStores: m2r.RemovedStores + dse,
		GVNHits:          sameGVN,

		SCCPFoldedValues:      sccp.FoldedValues,
		SCCPFoldedBranches:    sccp.FoldedBranches,
		SCCPUnreachableBlocks: sccp.UnreachableBlocks,
		CrossBlockGVNHits:     crossGVN,
		HoistedUBTerms:        hoistedUB,

		SCCPSharpened: sccp.Sharpened,
		HoistedValues: hoistedAll,
	}
}

// gvnKey is the structural identity of a candidate instruction. Args
// are value IDs after renumbering (candidates have at most two), -1
// where absent. No candidate has op OpInvalid, so the zero key marks
// an empty gvnTable slot.
type gvnKey struct {
	aux, aux2  int64
	arg0, arg1 int32
	width      int32
	op         Op
	signed     bool
}

func (k *gvnKey) hash() uint64 {
	h := uint64(uint32(k.arg0))<<32 | uint64(uint32(k.arg1))
	h ^= uint64(k.aux)*0x9e3779b97f4a7c15 ^ uint64(k.aux2)*0xc2b2ae3d27d4eb4f
	tag := uint64(k.width)<<9 | uint64(k.op)<<1
	if k.signed {
		tag |= 1
	}
	h ^= tag * 0x165667b19e3779f9
	h *= 0xff51afd7ed558ccd
	return h ^ h>>32
}

// gvnTable is GVN's scoped value table, an open-addressing hash table
// with linear probing. Each slot holds one key seen in this GVN call
// and the oldest value with that key still in scope (nil once all of
// them left it); gvnVal.next links that value to the next newer one,
// so candidates are tried oldest first. A key keeps its slot for the
// whole call, so the table never deletes: leaving a scope only
// unlinks the newest value of a key.
type gvnTable []gvnSlot

type gvnSlot struct {
	key  gvnKey
	head *Value
}

// newGVNTable sizes a table for up to n keys at a load of at most 2/3.
func newGVNTable(n int) gvnTable {
	size := 8
	for size < n+n/2 {
		size <<= 1
	}
	return make(gvnTable, size)
}

// slot returns k's slot, claiming an empty one for a new key.
func (t gvnTable) slot(k gvnKey) *gvnSlot {
	mask := uint64(len(t) - 1)
	for i := k.hash() & mask; ; i = (i + 1) & mask {
		s := &t[i]
		if s.key == k {
			return s
		}
		if s.key.op == OpInvalid {
			s.key = k
			return s
		}
	}
}

// gvnVal is GVN's state for one value, indexed by Value.ID.
type gvnVal struct {
	redirect *Value // the representative this value merged into
	next     *Value // the next newer value in scope with the same key
	remove   bool   // delete the instruction after the walk
}

// gvnUndo records one table insertion, undone when its block's scope
// ends: prev is the value that was newest for the key before (nil if
// the inserted value became the slot's head).
type gvnUndo struct {
	slot *gvnSlot
	prev *Value
}

// gvnCandidate reports whether v may participate in value numbering.
// Pure computations and constants only: no memory, calls, phis,
// opaque leaves, or terminators (OpUnknown is a fresh value each time
// by definition and must never merge). OpICmp is excluded because the
// simplification algorithm creates one report site per comparison
// instruction; width-1 results and operands are excluded because
// boolean use chains feed the sinks-only-to-folded-branches analysis;
// OpSelect is excluded by the width-1-operand rule (its condition).
func gvnCandidate(v *Value) bool {
	switch v.Op {
	case OpConst,
		OpAdd, OpSub, OpMul, OpUDiv, OpSDiv, OpURem, OpSRem, OpNeg,
		OpAnd, OpOr, OpXor, OpNot, OpShl, OpLShr, OpAShr,
		OpZExt, OpSExt, OpTrunc, OpPtrAdd, OpIndexAddr:
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

// firstAnchor returns the block's first position-carrying value — the
// instruction report positions anchor at — or nil.
func firstAnchor(b *Block) *Value {
	for v := range b.All() {
		if v.Pos.IsValid() {
			return v
		}
	}
	return nil
}

// gvnCarriesUBCond reports whether v is an operation insertUBConds
// attaches a condition to (among the gvnCandidate ops). A cross-block
// victim carrying a UB condition is never deleted: its condition's
// guarded ∆ form Or(¬R'_d, ¬U_d) names its *own* block's reachability,
// which differs from the representative's, so deleting it would drop a
// term the legacy pipeline keeps. The instruction stays in place as a
// condition carrier with its uses redirected.
func gvnCarriesUBCond(v *Value) bool {
	switch v.Op {
	case OpPtrAdd, OpUDiv, OpSDiv, OpURem, OpSRem, OpShl, OpLShr, OpAShr:
		return true
	case OpAdd, OpSub, OpMul, OpNeg:
		return v.Signed
	case OpIndexAddr:
		return v.Aux2 > 0
	}
	return false
}

// GVN merges structurally identical pure computations with
// dominator-ordered availability: a value computed in a block is
// available in every block it dominates, so the table is scoped to the
// dominator-tree walk. Within a block the representative must precede
// the victim; across blocks the representative's block must dominate
// the victim's block *and* precede it in layout order, so that the ∆
// deduplication (which keeps the first condition in block order) sees
// the same survivor either way. Uses of the victim are redirected to
// the representative and the victim is deleted, unless it is its
// block's report-position anchor or a cross-block UB-condition carrier
// (see gvnCarriesUBCond). Returns the same-block and cross-block merge
// counts.
//
// Per-value state (redirects, removals, table links) lives in one
// slice indexed by Value.ID, the dominator-tree children in a slice
// indexed by Block.ID, and layout order is Block.ID itself. This
// relies on the ID invariant of Func.NewValueID: value IDs are unique
// within f and at most its last allocated ID, and every Block.ID is
// the block's index in f.Blocks.
func GVN(f *Func, dom *DomTree) (sameBlock, crossBlock int) {
	cands := 0
	for _, b := range f.Blocks {
		for _, v := range b.Instrs {
			if gvnCandidate(v) {
				cands++
			}
		}
	}
	if cands == 0 {
		return 0, 0 // nothing can merge, so no operand changes either
	}
	vals := make([]gvnVal, f.numValueIDs())
	resolve := func(v *Value) *Value {
		for v != nil && vals[v.ID].redirect != nil {
			v = vals[v.ID].redirect
		}
		return v
	}
	children := domChildren(f, dom)
	table := newGVNTable(cands)
	scope := make([]gvnUndo, 0, cands) // undo log: unlink entries when leaving a block
	removed := 0

	var walk func(b *Block)
	walk = func(b *Block) {
		mark := len(scope)
		anchor := firstAnchor(b)
		for _, v := range b.Instrs {
			// Renumber operands first so chains of congruences close
			// through dominators.
			for i, a := range v.Args {
				v.Args[i] = resolve(a)
			}
			if !gvnCandidate(v) {
				continue
			}
			key := gvnKey{
				op: v.Op, width: int32(v.Width), signed: v.Signed,
				aux: v.Aux, aux2: v.Aux2, arg0: -1, arg1: -1,
			}
			if len(v.Args) > 0 {
				key.arg0 = int32(v.Args[0].ID)
			}
			if len(v.Args) > 1 {
				key.arg1 = int32(v.Args[1].ID)
			}
			slot := table.slot(key)
			var last *Value
			merged := false
			for rep := slot.head; rep != nil; rep = vals[rep.ID].next {
				last = rep
				// Same origin keeps the transitive origin walks behind
				// macro/inline filtering unchanged.
				if rep.Origin != v.Origin {
					continue
				}
				inBlock := rep.Block == b
				if !inBlock && rep.Block.ID >= b.ID {
					continue // ∆ dedup keeps the first in block order
				}
				vals[v.ID].redirect = rep
				if inBlock {
					sameBlock++
				} else {
					crossBlock++
				}
				if v != anchor && (inBlock || !gvnCarriesUBCond(v)) {
					vals[v.ID].remove = true
					removed++
				}
				merged = true
				break
			}
			if !merged {
				if last == nil {
					slot.head = v
				} else {
					vals[last.ID].next = v
				}
				scope = append(scope, gvnUndo{slot: slot, prev: last})
			}
		}
		if b.Term != nil {
			for i, a := range b.Term.Args {
				b.Term.Args[i] = resolve(a)
			}
		}
		for _, c := range children[b.ID] {
			walk(c)
		}
		for len(scope) > mark {
			u := scope[len(scope)-1]
			scope = scope[:len(scope)-1]
			if u.prev == nil {
				u.slot.head = nil
			} else {
				vals[u.prev.ID].next = nil
			}
		}
	}
	if f.Entry != nil {
		walk(f.Entry)
	}
	hits := sameBlock + crossBlock
	if hits == 0 {
		return 0, 0
	}
	// Cross-block uses of merged values (including phi operands in
	// blocks processed before the victim's block).
	for _, b := range f.Blocks {
		for v := range b.All() {
			for i, a := range v.Args {
				v.Args[i] = resolve(a)
			}
		}
	}
	if removed > 0 {
		for _, b := range f.Blocks {
			kept := b.Instrs[:0]
			for _, v := range b.Instrs {
				if !vals[v.ID].remove {
					kept = append(kept, v)
				}
			}
			b.Instrs = kept
		}
	}
	return sameBlock, crossBlock
}

// DSE deletes stores that are fully overwritten within their own
// block: a store to the same address value, of at least the same
// width, with no load or call in between (an intervening store to a
// different address cannot resurrect the dead bytes — the overwriting
// store is last either way). The block's report-position anchor is
// never deleted. Returns the number of stores removed.
func DSE(f *Func) int {
	removed := 0
	for _, b := range f.Blocks {
		anchor := firstAnchor(b)
		last := map[*Value]*Value{} // address value -> latest store
		var dead []*Value
		for _, v := range b.Instrs {
			switch v.Op {
			case OpLoad, OpCall:
				// Either may observe stored bytes (a call can load
				// through any escaped pointer); everything pending is
				// live.
				clear(last)
			case OpStore:
				addr := v.Args[0]
				if prev := last[addr]; prev != nil &&
					v.Args[1].Width >= prev.Args[1].Width &&
					prev != anchor {
					dead = append(dead, prev)
					removed++
				}
				last[addr] = v
			}
		}
		if len(dead) == 0 {
			continue
		}
		deadSet := map[*Value]bool{}
		for _, v := range dead {
			deadSet[v] = true
		}
		kept := b.Instrs[:0]
		for _, v := range b.Instrs {
			if !deadSet[v] {
				kept = append(kept, v)
			}
		}
		b.Instrs = kept
	}
	return removed
}
