package ir

// Dead-store elimination, run by the checker before encoding. It is
// deliberately conservative: the checker's output with it enabled must
// stay byte-identical to the legacy pipeline across the sweep corpus
// (TestSSAVsLegacyByteIdentity). Report positions anchor at a block's
// first position-carrying instruction, so DSE never removes that
// anchor instruction.
//
// The pass stack numbers no values. Two instructions with the same
// operation, width, signedness, auxiliary fields and operands encode
// to one term, because the bv builder hash-conses every term it
// builds, and the checker's well-defined-program assumption ∆ keeps
// one copy of each UB-condition term. So the solver already sees every
// merge a structural value-numbering pass over the IR could make.

// PassStats aggregates what one RunSSAPasses invocation did. Every
// pass registered in RunSSAPasses surfaces at least one counter here;
// scripts/invariants.sh enforces that each counter reaches core.Stats
// and that each pass has a differential oracle.
type PassStats struct {
	PromotedAllocas  int
	PlacedPhis       int
	EliminatedLoads  int
	EliminatedStores int

	SCCPFoldedValues      int
	SCCPFoldedBranches    int
	SCCPUnreachableBlocks int
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
// propagation (sccp.go) over the promoted form, then dead-store
// elimination and loop-invariant UB hoisting (licm.go). dom must be
// f's dominator tree; the passes change no blocks or edges, so it
// stays valid. UB-condition insertion and encoding must happen after
// this.
func RunSSAPasses(f *Func, dom *DomTree) PassStats {
	m2r := PromoteAllocas(f, dom)
	sccp := SCCP(f)
	dse := DSE(f)
	hoistedUB, hoistedAll := HoistLoopInvariantUB(f, dom)
	return PassStats{
		PromotedAllocas:  m2r.PromotedAllocas,
		PlacedPhis:       m2r.PlacedPhis,
		EliminatedLoads:  m2r.RemovedLoads,
		EliminatedStores: m2r.RemovedStores + dse,

		SCCPFoldedValues:      sccp.FoldedValues,
		SCCPFoldedBranches:    sccp.FoldedBranches,
		SCCPUnreachableBlocks: sccp.UnreachableBlocks,
		HoistedUBTerms:        hoistedUB,

		SCCPSharpened: sccp.Sharpened,
		HoistedValues: hoistedAll,
	}
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
