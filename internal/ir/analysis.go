package ir

// The SSA pass stack the checker runs before encoding: mem2reg
// promotion (ssa.go), then sparse conditional constant propagation
// (sccp.go). The passes exist only to cut solver work; the checker's
// output with them enabled must stay byte-identical to the legacy
// pipeline across the sweep corpus (TestSSAVsLegacyByteIdentity).
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

	// SCCPSharpened is the sharpening indicator the differential
	// oracles use: facts only the optimistic SCCP iteration could
	// prove, beyond the bv rewrite layer's reach. When promotion and
	// this are both zero, the pass stack provably changed no encoding
	// and the checker's output is byte-identical to the legacy
	// pipeline's.
	SCCPSharpened int
}

// Sharpening reports whether any pass transformed the function beyond
// what the encoding layer's rewrite rules would have seen through —
// i.e. whether byte-identical checker output versus the legacy
// pipeline is still guaranteed (false) or only semantic equivalence is
// (true). The differential fuzz oracles key their strictness on this.
func (ps PassStats) Sharpening() bool {
	return ps.PromotedAllocas > 0 || ps.EliminatedStores > 0 ||
		ps.EliminatedLoads > 0 || ps.SCCPSharpened > 0
}

// RunSSAPasses runs the SSA pass stack over f: mem2reg promotion of
// non-escaping allocas (ssa.go), then sparse conditional constant
// propagation (sccp.go) over the promoted form. dom must be f's
// dominator tree; the passes change no blocks or edges, so it stays
// valid. UB-condition insertion and encoding must happen after this.
func RunSSAPasses(f *Func, dom *DomTree) PassStats {
	m2r := PromoteAllocas(f, dom)
	sccp := SCCP(f)
	return PassStats{
		PromotedAllocas:  m2r.PromotedAllocas,
		PlacedPhis:       m2r.PlacedPhis,
		EliminatedLoads:  m2r.RemovedLoads,
		EliminatedStores: m2r.RemovedStores,

		SCCPFoldedValues:      sccp.FoldedValues,
		SCCPFoldedBranches:    sccp.FoldedBranches,
		SCCPUnreachableBlocks: sccp.UnreachableBlocks,

		SCCPSharpened: sccp.Sharpened,
	}
}
