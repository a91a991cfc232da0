// Package core implements the STACK checker itself — the paper's
// primary contribution. It inserts the undefined-behavior conditions
// of Figure 3 into the IR, computes intra-function reachability
// conditions, and runs the solver-based elimination and simplification
// algorithms of §3.2 with the dominator-approximate queries of §4.4,
// generating bug reports with minimal UB-condition sets (Fig. 8) and
// origin-based suppression of compiler-generated code (§4.2).
//
// This package is internal; the supported entry point is the public
// top-level stack package, which wraps the Checker behind a
// context-aware Analyzer and converts reports into stable-coded
// diagnostics.
package core

import (
	"context"
	"sort"
	"time"

	"repro/internal/bv"
	"repro/internal/cc"
	"repro/internal/ir"
)

// Algo identifies which of STACK's algorithms produced a report
// (paper §4.4 runs them in this order).
type Algo int

// Algorithms.
const (
	AlgoElimination Algo = iota
	AlgoSimplifyBool
	AlgoSimplifyAlgebra
)

var algoNames = [...]string{"elimination", "simplification (boolean oracle)", "simplification (algebra oracle)"}

func (a Algo) String() string { return algoNames[a] }

// Options configures the checker.
type Options struct {
	// Timeout bounds each solver query; the paper used 5 seconds
	// (§6.4). Zero means no timeout.
	Timeout time.Duration
	// MaxConflictsPerQuery optionally bounds solver effort
	// deterministically (useful for reproducible benchmarks).
	MaxConflictsPerQuery int64
	// FilterOrigins suppresses reports whose unstable fragment was
	// produced by a macro expansion or inlined function (paper §4.2).
	FilterOrigins bool
	// MinUBSets computes the minimal UB-condition set per report with
	// the masking algorithm of Fig. 8. Costs extra solver queries.
	MinUBSets bool
	// Inline runs the IR inliner before checking (paper §4.2).
	Inline bool
	// ScratchSolve disables incremental solving: every solver query is
	// decided by a fresh SAT core over a freshly blasted encoding, as if
	// it were the only query ever issued. Reports, counts, and the
	// ReportLog are byte-identical to the default incremental mode —
	// only the work differs — which is exactly what the differential
	// tests assert. The identity carries a caveat like the sweep's
	// worker-count guarantee, but stronger: retained learned clauses
	// change how fast (and in how many conflicts) a query finishes, so
	// either a wall-clock Timeout or a MaxConflictsPerQuery budget can
	// flip a near-limit query to Unknown in one mode only. Strict
	// byte-for-byte comparison requires both budgets unset (zero).
	// Production callers leave ScratchSolve false.
	ScratchSolve bool
	// SSA runs the pruned-SSA pass stack (ir.RunSSAPasses: mem2reg
	// promotion of the address-taken locals whose address does not
	// escape, which ir.Build leaves in memory, sparse conditional constant
	// propagation, dominator-ordered value numbering, dead-store
	// elimination, loop-invariant UB hoisting) over each function
	// before UB-condition insertion and encoding. Either way the IR is
	// in SSA form: ir.Build already promotes every local whose address
	// is never taken. On since
	// PR 10 (set by DefaultOptions); the legacy pipeline remains the
	// differential reference behind SSA=false. The passes are
	// engineered so that sweep output is byte-identical to the legacy
	// pipeline across the synthetic corpus
	// (TestSSAVsLegacyByteIdentity); the difference is effort —
	// promoted loads stop encoding as distinct opaque variables, so
	// downstream terms hash-cons and fewer terms reach the SAT core,
	// and dominator-implied elimination queries are skipped.
	SSA bool
	// Flags models the gcc options discussed in §7 that promise
	// C*-like semantics for some UB kinds: code is not unstable with
	// respect to behavior the compiler has been told to define.
	Flags Flags
}

// Flags mirrors the gcc workaround options of paper §7. Each flag
// removes the corresponding UB conditions from the well-defined
// program assumption, exactly as the option constrains the optimizer.
// The paper's point — that these flags cover an incomplete set of UB
// (nothing for shifts or division) — falls out of the model: there is
// no flag for the remaining kinds.
type Flags struct {
	// WrapV is -fwrapv: signed integer arithmetic wraps.
	WrapV bool
	// NoStrictOverflow is -fno-strict-overflow: pointer arithmetic
	// wraps too (implies WrapV in gcc; here it adds pointer overflow).
	NoStrictOverflow bool
	// NoDeleteNullPointerChecks is -fno-delete-null-pointer-checks.
	NoDeleteNullPointerChecks bool
}

// definesAway reports whether the flags give kind k defined behavior.
func (fl Flags) definesAway(k UBKind) bool {
	switch k {
	case UBSignedOverflow:
		return fl.WrapV || fl.NoStrictOverflow
	case UBPointerOverflow:
		return fl.NoStrictOverflow
	case UBNullDeref:
		return fl.NoDeleteNullPointerChecks
	}
	return false
}

// DefaultOptions mirror the paper's configuration, plus the SSA
// analysis pipeline, on by default since PR 10 (WithSSA(false) /
// Options.SSA=false is the escape hatch and differential reference).
var DefaultOptions = Options{
	Timeout:       5 * time.Second,
	FilterOrigins: true,
	MinUBSets:     true,
	Inline:        true,
	SSA:           true,
}

// Checker is the STACK checker. Create with New; safe for sequential
// reuse across programs. A Checker is NOT safe for concurrent use: its
// stats accumulate without locks by design. Concurrent callers (see
// corpus.Sweeper.Check) create one Checker per worker and merge the
// results with Stats.Add.
type Checker struct {
	opts  Options
	stats Stats
	// arena backs term allocation for every function this checker
	// analyzes; it is reset between functions, recycling the slabs of
	// the previous function's term DAG. Safe because nothing built
	// during CheckFunc outlives it (reports carry positions and UB
	// kinds, never terms).
	arena *bv.Arena
	// spare is the incremental solver of the previous function, given
	// back when its CheckFunc returned. The next function's session
	// resets and reuses it, so the SAT core's arrays, watch lists and
	// clause arena and the blaster's cache keep the size the largest
	// function so far grew them to instead of growing again from nil.
	// A reset solver searches exactly as a new one does; the storage
	// lives as long as the Checker.
	spare *bv.Solver
}

// New returns a checker with the given options.
func New(opts Options) *Checker { return &Checker{opts: opts, arena: bv.NewArena()} }

// Stats returns accumulated statistics.
func (c *Checker) Stats() Stats { return c.stats }

// CheckProgram analyzes every function and returns all reports, in
// deterministic order. Cancelling ctx aborts the analysis within one
// solver check interval; the partial results are discarded and ctx's
// error is returned.
func (c *Checker) CheckProgram(ctx context.Context, p *ir.Program) ([]*Report, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if c.opts.Inline {
		ir.InlineProgram(p, ir.DefaultInlineOptions)
	}
	var out []*Report
	for _, f := range p.Funcs {
		reports, err := c.CheckFunc(ctx, f)
		if err != nil {
			return nil, err
		}
		for _, r := range reports {
			r.File = p.File
		}
		out = append(out, reports...)
	}
	sort.SliceStable(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Col != b.Pos.Col {
			return a.Pos.Col < b.Pos.Col
		}
		return a.Algo < b.Algo
	})
	return out, nil
}

// CheckFunc runs the three algorithms of §4.4 on one function:
// elimination, then boolean-oracle simplification, then algebra-oracle
// simplification. Cancellation follows the CheckProgram contract.
func (c *Checker) CheckFunc(ctx context.Context, f *ir.Func) ([]*Report, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	c.stats.Functions++
	c.stats.Blocks += len(f.Blocks)

	// One incremental session per function: the shared encoding is
	// blasted once and every query pair (reachability, then the Δ
	// "optimization-safe?" query) plus the Fig. 8 masking loop run under
	// assumptions against the same SAT core. ScratchSolve flips the
	// session into the per-query-rebuild reference mode.
	bld := bv.NewBuilderArena(c.arena)
	arenaReusedBefore := c.arena.BytesReused()
	defer c.arena.Reset()
	solver := bv.NewSession(bld, c.spare)
	defer func() { c.spare = solver.Release() }()
	solver.Timeout = c.opts.Timeout
	solver.MaxConflicts = c.opts.MaxConflictsPerQuery
	solver.Scratch = c.opts.ScratchSolve
	st := c.newFuncState(ctx, f, bld)
	st.solver = solver

	var reports []*Report
	reports = append(reports, st.eliminate()...)
	reports = append(reports, st.simplify()...)

	c.stats.Queries += solver.Queries
	c.stats.Timeouts += solver.Timeouts
	c.stats.FastPaths += solver.FastPaths
	c.stats.WitnessHits += solver.WitnessHits
	c.stats.RewriteHits += int64(bld.RewriteHits)
	c.stats.TermsCreated += int64(bld.TermsCreated)
	c.stats.CacheHits += int64(bld.CacheHits)
	c.stats.TermsBlasted += solver.Blasts()
	c.stats.BlastPasses += solver.BlastPasses
	c.stats.LearntsReused += solver.LearntsReused
	c.stats.LearntsDropped += solver.LearntsDropped()
	c.stats.ArenaBytesReused += c.arena.BytesReused() - arenaReusedBefore
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return reports, nil
}

// newFuncState prepares f for checking on bld: it runs the SSA pass
// stack when enabled, inserts the UB conditions and collects those the
// flags leave in ∆. The caller sets the solver.
func (c *Checker) newFuncState(ctx context.Context, f *ir.Func, bld *bv.Builder) *funcState {
	// The SSA pass stack rewrites the function before anything reads
	// it: UB conditions, the encoder's caches, and every report anchor
	// must see the final IR. The passes touch no blocks or edges, so
	// the dominator tree computed first stays valid.
	dom := ir.ComputeDom(f)
	if c.opts.SSA {
		ps := ir.RunSSAPasses(f, dom)
		c.stats.PromotedAllocas += int64(ps.PromotedAllocas)
		c.stats.EliminatedStores += int64(ps.EliminatedStores)
		c.stats.GVNHits += int64(ps.GVNHits)
		c.stats.SCCPFoldedValues += int64(ps.SCCPFoldedValues)
		c.stats.SCCPFoldedBranches += int64(ps.SCCPFoldedBranches)
		c.stats.SCCPUnreachableBlocks += int64(ps.SCCPUnreachableBlocks)
		c.stats.CrossBlockGVNHits += int64(ps.CrossBlockGVNHits)
		c.stats.HoistedUBTerms += int64(ps.HoistedUBTerms)
		if ps.Sharpening() {
			c.stats.SSASharpened++
		}
	}
	enc := newEncoder(bld, f)
	ubs := insertUBConds(f)
	st := &funcState{
		c: c, ctx: ctx, f: f, enc: enc, ubs: ubs, dom: dom,
		eliminated: map[*ir.Block]bool{},
		seen:       map[int]bool{},
	}
	for _, b := range f.Blocks {
		for v := range b.All() {
			for _, u := range ubs[v] {
				if c.opts.Flags.definesAway(u.Kind) {
					continue // §7: the flag promises defined behavior
				}
				st.allConds = append(st.allConds, u)
			}
		}
	}
	st.delta = make([]condTerms, len(st.allConds))
	return st
}

type funcState struct {
	c        *Checker
	ctx      context.Context
	f        *ir.Func
	enc      *encoder
	solver   *bv.Session
	ubs      map[*ir.Value][]*UBCond
	dom      *ir.DomTree
	allConds []*UBCond
	// delta memoizes the ∆ terms of allConds[i] at index i, and seen
	// is wellDefinedTerms' dedup set, reused from call to call.
	delta      []condTerms
	seen       map[int]bool
	eliminated map[*ir.Block]bool
}

// condTerms memoizes the ∆ terms of one UB condition U, each built on
// first request: U, the plain form ¬U and the guarded form ¬R ∨ ¬U.
// Each is first built where an unmemoized construction would first
// build it, so term IDs do not change.
type condTerms struct {
	ub, plain, guarded *bv.Term
}

// wellDefinedTerms encodes the well-defined program assumption ∆ (Def.
// 2) for a fragment anchored at block b: one term per UB condition in
// the function. Conditions whose instruction dominates the fragment
// contribute the plain ¬U_d of eq. (5); every other condition d
// contributes the guarded form R'_d → ¬U_d of eq. (2), with R'_d the
// intra-function reachability of d's block. uptoTerm includes b's own
// instructions as dominators (for fragments at b's terminator).
// Results are deduplicated by term identity.
func (st *funcState) wellDefinedTerms(b *ir.Block, uptoTerm bool) ([]*bv.Term, []*UBCond) {
	bb := st.enc.b
	dominates := func(u *UBCond) bool {
		ub := u.Value.Block
		if ub == b {
			return uptoTerm && u.Value != b.Term
		}
		return st.dom.Dominates(ub, b)
	}
	clear(st.seen)
	var terms []*bv.Term
	var kept []*UBCond
	for i, u := range st.allConds {
		d := &st.delta[i]
		if d.ub == nil {
			d.ub = st.enc.ubTerm(u)
		}
		var t *bv.Term
		if dominates(u) {
			if d.plain == nil {
				d.plain = bb.Not(d.ub)
			}
			t = d.plain
		} else {
			if d.guarded == nil {
				notR := bb.Not(st.enc.reachability(u.Value.Block))
				if d.plain == nil {
					d.plain = bb.Not(d.ub)
				}
				d.guarded = bb.Or(notR, d.plain)
			}
			t = d.guarded
		}
		if t.IsConstBool(true) {
			continue // vacuous
		}
		if st.seen[t.ID()] {
			continue
		}
		st.seen[t.ID()] = true
		terms = append(terms, t)
		kept = append(kept, u)
	}
	return terms, kept
}

// elimVerdict memoizes one block's elimination queries. p1 and p2
// default to Sat: constant-true reachability needs no phase-1 query,
// and a block without UB conditions no phase-2 query.
type elimVerdict struct {
	trivial bool // reachability const-false: silently eliminated
	r       *bv.Term
	p1      bv.Result
	negs    []*bv.Term
	kept    []*UBCond
	p2      bv.Result
	coreIdx []int
}

// elimQueries issues the Fig. 5 solver queries for one block.
func (st *funcState) elimQueries(b *ir.Block) elimVerdict {
	v := elimVerdict{p1: bv.Sat, p2: bv.Sat}
	v.r = st.enc.reachability(b)
	if v.r.IsConstBool(false) {
		v.trivial = true // trivially unreachable
		return v
	}
	// Phase 1 (without ∆): trivially unreachable code is removed
	// silently, exactly as a C* compiler could. Constant-true
	// reachability (common after word-level rewriting) needs no
	// query at all.
	if !v.r.IsConstBool(true) {
		v.p1 = st.solver.SolveContext(st.ctx, v.r)
		if v.p1 != bv.Sat {
			return v
		}
	}
	// Phase 2 (with the well-defined program assumption).
	v.negs, v.kept = st.wellDefinedTerms(b, false)
	if len(v.negs) == 0 {
		return v
	}
	assumptions := append([]*bv.Term{v.r}, v.negs...)
	v.p2, v.coreIdx = st.solver.SolveCoreContext(st.ctx, assumptions...)
	return v
}

// eliminate implements Fig. 5 over basic blocks: report blocks that
// are reachable under C* but unreachable under the well-defined
// program assumption.
//
// The solver queries run first, over the blocks in reverse layout
// order, and their verdicts are consumed in layout order below, so the
// eliminated set, the downstream-frontier suppression and the report
// order are those of a walk in layout order. Querying a block before
// its dominators is what makes the session's stored assignments pay
// off: in an acyclic CFG a model of a block's reachability (and of its
// Δ, whose per-condition terms are pointwise implied) is one of each
// dominator's, so the dominators' queries are answered from the
// assignment without search. Like ScratchSolve, the query order can
// shift which query a conflict or time budget expires on; outside
// budget exhaustion the output is that of the layout-order walk.
func (st *funcState) eliminate() []*Report {
	var out []*Report
	verdicts := make(map[*ir.Block]elimVerdict, len(st.f.Blocks))
	for i := len(st.f.Blocks) - 1; i >= 0; i-- {
		b := st.f.Blocks[i]
		if b == st.f.Entry {
			continue
		}
		if st.ctx.Err() != nil {
			return nil // cancelled: CheckFunc discards the results
		}
		verdicts[b] = st.elimQueries(b)
	}
	for _, b := range st.f.Blocks {
		if st.ctx.Err() != nil {
			return out // cancelled: partial results, discarded by CheckFunc
		}
		if b == st.f.Entry {
			continue
		}
		v := verdicts[b]
		if v.trivial || v.p1 == bv.Unsat {
			st.eliminated[b] = true
			continue
		}
		if v.p1 == bv.Unknown || len(v.negs) == 0 || v.p2 != bv.Unsat {
			continue
		}
		r, negs, kept, coreIdx := v.r, v.negs, v.kept, v.coreIdx
		st.eliminated[b] = true
		// Only the frontier of an eliminated region is the unstable
		// code; blocks that are unreachable solely because all their
		// predecessors were eliminated are consequences of the same
		// instability and would double-count it.
		downstream := len(b.Preds) > 0
		for _, p := range b.Preds {
			if !st.eliminated[p] {
				downstream = false
				break
			}
		}
		if downstream {
			continue
		}
		rep := &Report{
			Func:   st.f.Name,
			Algo:   AlgoElimination,
			Pos:    blockPos(b),
			Origin: blockOrigin(b),
		}
		rep.UBConds = st.minimalUBSet(r, negs, kept, coreIdx, 1)
		if st.c.opts.FilterOrigins && rep.Origin != "" {
			continue // compiler-generated code (paper §4.2)
		}
		out = append(out, rep)
	}
	return out
}

// simplify implements Fig. 6 on branch conditions, first with the
// boolean oracle, then with the algebra oracle (paper §4.4 order).
func (st *funcState) simplify() []*Report {
	var out []*Report
	type condSite struct {
		blk  *ir.Block
		cond *ir.Value
	}
	var sites []condSite
	seen := map[*ir.Value]bool{}
	for _, b := range st.f.Blocks {
		if st.eliminated[b] {
			continue
		}
		// Branch conditions — unless elimination already folded the
		// branch by removing a successor, in which case re-reporting
		// the condition would double-count the same unstable code.
		if b.Term != nil && b.Term.Op == ir.OpCondBr {
			cond := b.Term.Args[0]
			seen[cond] = true
			if !st.eliminated[b.Succs[0]] && !st.eliminated[b.Succs[1]] {
				sites = append(sites, condSite{b, cond})
			}
		}
	}
	// Boolean expressions used as values (assigned, returned, merged
	// into phis): the paper's Simplify iterates over all expressions,
	// not only branch conditions (Fig. 6). Expressions whose value
	// only flows into branches that elimination already folded are the
	// same unstable check and are not re-reported.
	uses := ir.NewDefUse(st.f)
	for _, b := range st.f.Blocks {
		if st.eliminated[b] {
			continue
		}
		for _, v := range b.Instrs {
			if v.Op == ir.OpICmp && !seen[v] && !st.sinksOnlyToFoldedBranches(v, uses, map[*ir.Value]bool{}) {
				seen[v] = true
				sites = append(sites, condSite{b, v})
			}
		}
	}
	// Boolean oracle.
	for _, s := range sites {
		if st.ctx.Err() != nil {
			return out
		}
		if rep := st.simplifyBool(s.blk, s.cond); rep != nil {
			out = append(out, rep)
		}
	}
	// Algebra oracle, on conditions the boolean oracle left alone.
	reported := map[*ir.Value]bool{}
	for _, r := range out {
		reported[r.cond] = true
	}
	for _, s := range sites {
		if st.ctx.Err() != nil {
			return out
		}
		if reported[s.cond] {
			continue
		}
		if rep := st.simplifyAlgebra(s.blk, s.cond); rep != nil {
			out = append(out, rep)
		}
	}
	return out
}

// sinksOnlyToFoldedBranches reports whether every transitive consumer
// of boolean value v is a conditional branch one of whose successors
// elimination removed — i.e. the instability was already reported.
func (st *funcState) sinksOnlyToFoldedBranches(v *ir.Value, uses ir.DefUse, visiting map[*ir.Value]bool) bool {
	if visiting[v] {
		return true // cycle through a phi: no independent sink
	}
	visiting[v] = true
	defer delete(visiting, v)
	us := uses.Users(v)
	if len(us) == 0 {
		return false // dead value: treat as independent
	}
	for _, u := range us {
		switch {
		case u.Op == ir.OpCondBr:
			if !st.eliminated[u.Block.Succs[0]] && !st.eliminated[u.Block.Succs[1]] {
				return false // feeds a live branch: the branch site covers it
			}
		case u.Width != 1:
			return false // escapes into non-boolean computation
		case !st.sinksOnlyToFoldedBranches(u, uses, visiting):
			return false
		}
	}
	return true
}

// simplifyBool proposes true and false for a branch condition
// (paper §3.2.3, boolean oracle).
func (st *funcState) simplifyBool(blk *ir.Block, cond *ir.Value) *Report {
	e := st.enc.value(cond)
	if e.Op() == bv.OpConst {
		return nil // already constant: trivially simplified
	}
	r := st.enc.reachability(blk)
	negs, kept := st.wellDefinedTerms(blk, true)
	b := st.enc.b
	for _, proposal := range []bool{true, false} {
		ne := b.Xor(e, b.Bool(proposal)) // e(x) ≠ e'(x)
		// Phase 1: trivially equivalent without ∆ — a plain compiler
		// could fold it; not unstable. Both constant verdicts are
		// decided here without a solver query.
		if ne.IsConstBool(false) {
			return nil
		}
		if !(ne.IsConstBool(true) && r.IsConstBool(true)) {
			if res := st.solver.SolveContext(st.ctx, ne, r); res != bv.Sat {
				return nil
			}
		}
		if len(negs) == 0 {
			continue
		}
		assumptions := append([]*bv.Term{ne, r}, negs...)
		res, coreIdx := st.solver.SolveCoreContext(st.ctx, assumptions...)
		if res == bv.Unsat {
			rep := &Report{
				Func:       st.f.Name,
				Algo:       AlgoSimplifyBool,
				Pos:        condPos(blk, cond),
				Origin:     condOrigin(blk, cond),
				Simplified: boolName(proposal),
				cond:       cond,
			}
			rep.UBConds = st.minimalUBSet(b.And(ne, r), negs, kept, coreIdx, 2)
			if st.c.opts.FilterOrigins && rep.Origin != "" {
				return nil
			}
			return rep
		}
	}
	return nil
}

func boolName(v bool) string {
	if v {
		return "true"
	}
	return "false"
}

// simplifyAlgebra implements the algebra oracle: eliminate a common
// term on both sides of a comparison when one side is a subexpression
// of the other, e.g. propose y < 0 for x + y < x (paper §3.2.3; the
// FFmpeg case of §6.2.2 is data + x < data ⇒ x < 0).
func (st *funcState) simplifyAlgebra(blk *ir.Block, cond *ir.Value) *Report {
	if cond.Op != ir.OpICmp {
		return nil
	}
	x, y := cond.Args[0], cond.Args[1]
	prop, desc := st.algebraProposal(cond, x, y, false)
	if prop == nil {
		prop, desc = st.algebraProposal(cond, y, x, true)
	}
	if prop == nil {
		return nil
	}
	b := st.enc.b
	e := st.enc.value(cond)
	ne := b.Xor(e, prop)
	if ne.IsConstBool(false) {
		return nil // syntactically identical already
	}
	r := st.enc.reachability(blk)
	// Phase 1, with the same constant short-circuit as simplifyBool.
	if !(ne.IsConstBool(true) && r.IsConstBool(true)) {
		if res := st.solver.SolveContext(st.ctx, ne, r); res != bv.Sat {
			return nil
		}
	}
	negs, kept := st.wellDefinedTerms(blk, true)
	if len(negs) == 0 {
		return nil
	}
	assumptions := append([]*bv.Term{ne, r}, negs...)
	res, coreIdx := st.solver.SolveCoreContext(st.ctx, assumptions...)
	if res != bv.Unsat {
		return nil
	}
	rep := &Report{
		Func:       st.f.Name,
		Algo:       AlgoSimplifyAlgebra,
		Pos:        condPos(blk, cond),
		Origin:     condOrigin(blk, cond),
		Simplified: desc,
		cond:       cond,
	}
	rep.UBConds = st.minimalUBSet(b.And(ne, r), negs, kept, coreIdx, 2)
	if st.c.opts.FilterOrigins && rep.Origin != "" {
		return nil
	}
	return rep
}

// algebraProposal builds e' for cmp(sum, base) where sum = base + off:
// the comparison reduces to comparing off against 0 with signed
// semantics (the optimizer's view once overflow is assumed away).
func (st *funcState) algebraProposal(cond, sum, base *ir.Value, swapped bool) (*bv.Term, string) {
	if sum.Op != ir.OpAdd && sum.Op != ir.OpPtrAdd {
		return nil, ""
	}
	if sum.Op == ir.OpAdd && !sum.Signed {
		return nil, "" // unsigned wraparound is defined; not unstable
	}
	var off *ir.Value
	if sum.Args[0] == base {
		off = sum.Args[1]
	} else if sum.Args[1] == base {
		off = sum.Args[0]
	} else {
		return nil, ""
	}
	b := st.enc.b
	o := st.enc.value(off)
	zero := b.ConstInt64(0, o.Width())
	pred := cond.Pred()
	if swapped {
		// cmp(base, base+off): mirror the predicate.
		switch pred {
		case ir.CmpULT:
			return b.SGT(o, zero), "0 < " + offName(off)
		case ir.CmpULE:
			return b.SGE(o, zero), "0 <= " + offName(off)
		case ir.CmpSLT:
			return b.SGT(o, zero), "0 < " + offName(off)
		case ir.CmpSLE:
			return b.SGE(o, zero), "0 <= " + offName(off)
		case ir.CmpEq:
			return b.Eq(o, zero), offName(off) + " == 0"
		case ir.CmpNe:
			return b.Ne(o, zero), offName(off) + " != 0"
		}
		return nil, ""
	}
	switch pred {
	case ir.CmpULT, ir.CmpSLT:
		return b.SLT(o, zero), offName(off) + " < 0"
	case ir.CmpULE, ir.CmpSLE:
		return b.SLE(o, zero), offName(off) + " <= 0"
	case ir.CmpEq:
		return b.Eq(o, zero), offName(off) + " == 0"
	case ir.CmpNe:
		return b.Ne(o, zero), offName(off) + " != 0"
	}
	return nil, ""
}

func offName(v *ir.Value) string {
	if v.Op == ir.OpParam {
		return v.AuxName
	}
	switch v.Op {
	case ir.OpZExt, ir.OpSExt, ir.OpTrunc, ir.OpMul:
		return offName(v.Args[0])
	}
	if v.AuxName != "" {
		return v.AuxName
	}
	return "x"
}

// minimalUBSet implements Fig. 8: mask each UB condition out of the
// query; the ones whose removal makes it satisfiable are essential.
// The solver's unsat core prunes the candidate set first. coreIdx
// indexes the caller's assumption vector, in which negs begin at
// offset.
func (st *funcState) minimalUBSet(h *bv.Term, negs []*bv.Term, conds []*UBCond, coreIdx []int, offset int) []UBRef {
	refs := func(idx []int) []UBRef {
		var out []UBRef
		seen := map[UBRef]bool{}
		for _, i := range idx {
			// The H term occupies assumption slots before negs in the
			// callers' SolveCore; normalize indices here.
			r := UBRef{Kind: conds[i].Kind, Pos: conds[i].Pos}
			if !seen[r] {
				seen[r] = true
				out = append(out, r)
			}
		}
		sort.Slice(out, func(a, b int) bool {
			if out[a].Pos.Line != out[b].Pos.Line {
				return out[a].Pos.Line < out[b].Pos.Line
			}
			return out[a].Kind < out[b].Kind
		})
		return out
	}
	// Candidates: indices into negs, shifted out of the caller's
	// assumption vector.
	var candidates []int
	for _, i := range coreIdx {
		if i < offset {
			continue // belongs to the H terms
		}
		candidates = append(candidates, i-offset)
	}
	if len(candidates) == 0 {
		for i := range negs {
			candidates = append(candidates, i)
		}
	}
	if !st.c.opts.MinUBSets {
		return refs(candidates)
	}
	var minimal []int
	for _, masked := range candidates {
		assumptions := []*bv.Term{h}
		for _, j := range candidates {
			if j != masked {
				assumptions = append(assumptions, negs[j])
			}
		}
		if st.solver.SolveContext(st.ctx, assumptions...) == bv.Sat {
			minimal = append(minimal, masked)
		}
	}
	if len(minimal) == 0 {
		minimal = candidates
	}
	return refs(minimal)
}

// blockPos picks the report position for an eliminated block.
func blockPos(b *ir.Block) cc.Pos {
	for v := range b.All() {
		if v.Pos.IsValid() {
			return v.Pos
		}
	}
	return cc.Pos{}
}

func blockOrigin(b *ir.Block) string {
	for v := range b.All() {
		if v.Pos.IsValid() && v.Origin != "" {
			return v.Origin
		}
		if v.Pos.IsValid() {
			break
		}
	}
	// The block's own code is user-written; if every branch guarding
	// it was produced by a macro or an inlined function, the
	// elimination is still driven by compiler-generated code and is
	// suppressed (paper §4.2).
	origin := ""
	for _, p := range b.Preds {
		if p.Term == nil || p.Term.Op != ir.OpCondBr {
			return ""
		}
		o := ir.DefOrigin(p.Term.Args[0])
		if o == "" {
			return ""
		}
		origin = o
	}
	return origin
}

func condPos(blk *ir.Block, cond *ir.Value) cc.Pos {
	if cond.Pos.IsValid() {
		return cond.Pos
	}
	return blk.Term.Pos
}

func condOrigin(blk *ir.Block, cond *ir.Value) string {
	if cond.Origin != "" {
		return cond.Origin
	}
	return blk.Term.Origin
}
