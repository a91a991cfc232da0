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
	"slices"
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
	// escape, which ir.Build leaves in memory, then sparse conditional
	// constant propagation) over each function before UB-condition
	// insertion and encoding. Either way the IR is in SSA form: ir.Build
	// already promotes every local whose address is never taken. On by
	// default (set by DefaultOptions). SSA=false is the differential
	// reference for exactly those two passes: promotion of address-taken,
	// non-escaping slots, and SCCP. The passes are engineered so that
	// sweep output is byte-identical to the legacy pipeline across the
	// synthetic corpus (TestSSAVsLegacyByteIdentity); the difference is
	// effort — promoted loads stop encoding as distinct opaque
	// variables, so downstream terms hash-cons, and branch conditions
	// SCCP proves constant fold the reachability of the code they guard,
	// so fewer queries and terms reach the SAT core.
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
		c.stats.SCCPFoldedValues += int64(ps.SCCPFoldedValues)
		c.stats.SCCPFoldedBranches += int64(ps.SCCPFoldedBranches)
		c.stats.SCCPUnreachableBlocks += int64(ps.SCCPUnreachableBlocks)
		if ps.Sharpening() {
			c.stats.SSASharpened++
		}
	}
	enc := newEncoder(bld, f)
	ubs := insertUBConds(f)
	st := &funcState{
		c: c, ctx: ctx, f: f, enc: enc, dom: dom,
		seen:       map[int]bool{},
		eliminated: make([]bool, len(f.Blocks)),
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
	dom      *ir.DomTree
	allConds []*UBCond
	// delta memoizes the ∆ terms of allConds[i] at index i, and seen
	// is wellDefinedTerms' dedup set, reused from call to call. last is
	// the latest ∆ wellDefinedTerms returned.
	delta []condTerms
	seen  map[int]bool
	last  struct {
		b        *ir.Block
		uptoTerm bool
		terms    []*bv.Term
		kept     []*UBCond
	}
	eliminated []bool // by Block.ID
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
// Results are deduplicated by term identity. Asked again for the ∆ it
// returned last, it returns the same slices.
func (st *funcState) wellDefinedTerms(b *ir.Block, uptoTerm bool) ([]*bv.Term, []*UBCond) {
	if st.last.b == b && st.last.uptoTerm == uptoTerm {
		return st.last.terms, st.last.kept
	}
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
	st.last.b, st.last.uptoTerm, st.last.terms, st.last.kept = b, uptoTerm, terms, kept
	return terms, kept
}

// verdict is what decide found. p1 and p2 stay Sat where their query
// is not needed: phase 1 for an h of constant-true terms, phase 2 for
// an empty ∆.
type verdict struct {
	p1, p2 bv.Result
	negs   []*bv.Term // ∆
	kept   []*UBCond  // kept[i] is the condition negs[i] assumes away
	core   []int      // on a phase-2 Unsat: the unsat core, as indices into negs
}

// decide is the one check of Def. 2 behind every report. A fragment e
// is unstable when an optimizer that assumes the well-defined program
// assumption ∆ may replace it with e', though the two differ under C*.
// h states that they differ: [R] for elimination, where e is the
// reachability R of block blk and e' is false (Fig. 5), and [e ≠ e', R]
// for simplification, where e is a boolean expression at blk's
// terminator and e' a constant or an algebraic reduction (Fig. 6).
//
// Phase 1 asks whether h is satisfiable without ∆. If it is not, a C*
// compiler could make the replacement too, and e is not unstable. An h
// whose first term is constant false is Unsat without a query, and one
// of constant-true terms Sat. Phase 2 asks whether h ∧ ∆ is
// satisfiable, with ∆ the wellDefinedTerms of the fragment: Unsat
// means e is unstable, and the unsat core seeds its minimal UB set.
func (st *funcState) decide(blk *ir.Block, uptoTerm bool, h ...*bv.Term) verdict {
	v := verdict{p1: bv.Sat, p2: bv.Sat}
	if h[0].IsConstBool(false) {
		v.p1 = bv.Unsat
		return v
	}
	if slices.ContainsFunc(h, func(t *bv.Term) bool { return !t.IsConstBool(true) }) {
		if v.p1 = st.solver.SolveContext(st.ctx, h...); v.p1 != bv.Sat {
			return v
		}
	}
	v.negs, v.kept = st.wellDefinedTerms(blk, uptoTerm)
	if len(v.negs) == 0 {
		return v
	}
	var core []int
	v.p2, core = st.solver.SolveCoreContext(st.ctx, slices.Concat(h, v.negs)...)
	v.core = core[:0]
	for _, i := range core {
		if i >= len(h) {
			v.core = append(v.core, i-len(h))
		}
	}
	return v
}

// report builds the report of an unstable fragment at blk: cond for a
// simplification, the block itself for an elimination (cond nil). Its
// UB set is the minimal one of Fig. 8 under the hypothesis h; then a
// fragment that a macro or an inlined function wrote is dropped (§4.2).
func (st *funcState) report(algo Algo, blk *ir.Block, cond *ir.Value, simplified string, h *bv.Term, v verdict) *Report {
	rep := &Report{Func: st.f.Name, Algo: algo, Simplified: simplified}
	if cond == nil {
		rep.Pos, rep.Origin = blockPos(blk), blockOrigin(blk)
	} else {
		rep.Pos, rep.Origin = condPos(blk, cond), condOrigin(blk, cond)
	}
	rep.UBConds = st.minimalUBSet(h, v)
	if st.c.opts.FilterOrigins && rep.Origin != "" {
		return nil
	}
	return rep
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
	verdicts := make([]verdict, len(st.f.Blocks))
	for i := len(st.f.Blocks) - 1; i >= 0; i-- {
		b := st.f.Blocks[i]
		if b == st.f.Entry {
			continue
		}
		if st.ctx.Err() != nil {
			return nil // cancelled: CheckFunc discards the results
		}
		verdicts[i] = st.decide(b, false, st.enc.reachability(b))
	}
	for i, b := range st.f.Blocks {
		if st.ctx.Err() != nil {
			return out // cancelled: partial results, discarded by CheckFunc
		}
		v := verdicts[i]
		if b == st.f.Entry || v.p1 != bv.Unsat && v.p2 != bv.Unsat {
			continue
		}
		st.eliminated[i] = true
		if v.p1 == bv.Unsat {
			continue // unreachable under C* too: removed silently
		}
		// Only the frontier of an eliminated region is the unstable
		// code; blocks that are unreachable solely because all their
		// predecessors were eliminated are consequences of the same
		// instability and would double-count it.
		downstream := len(b.Preds) > 0
		for _, p := range b.Preds {
			if !st.eliminated[p.ID] {
				downstream = false
				break
			}
		}
		if downstream {
			continue
		}
		if rep := st.report(AlgoElimination, b, nil, "", st.enc.reachability(b), v); rep != nil {
			out = append(out, rep)
		}
	}
	return out
}

// folded reports whether elimination removed a successor of br, a
// block that ends in a conditional branch.
func (st *funcState) folded(br *ir.Block) bool {
	return st.eliminated[br.Succs[0].ID] || st.eliminated[br.Succs[1].ID]
}

// simplify implements Fig. 6 on branch conditions, first with the
// boolean oracle, then with the algebra oracle (paper §4.4 order).
func (st *funcState) simplify() []*Report {
	type condSite struct {
		blk  *ir.Block
		cond *ir.Value
	}
	var sites []condSite
	n := valueIDBound(st.f)
	seen := make([]bool, n) // by Value.ID
	for _, b := range st.f.Blocks {
		if st.eliminated[b.ID] {
			continue
		}
		// Branch conditions — unless elimination already folded the
		// branch by removing a successor, in which case re-reporting
		// the condition would double-count the same unstable code.
		if b.Term != nil && b.Term.Op == ir.OpCondBr {
			cond := b.Term.Args[0]
			seen[cond.ID] = true
			if !st.folded(b) {
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
	visited := make([]bool, n) // by Value.ID: reached by the current walk
	var walk []*ir.Value       // the values the current walk reached, in order
	// sinksOnlyToFoldedBranches reports whether every transitive
	// consumer of boolean value v is a conditional branch that
	// elimination folded. It visits each value reachable through
	// width-1 users once: the property holds at every such value or
	// fails at one, whatever the path that reaches it.
	sinksOnlyToFoldedBranches := func(v *ir.Value) bool {
		for _, x := range walk {
			visited[x.ID] = false
		}
		walk = append(walk[:0], v)
		visited[v.ID] = true
		for i := 0; i < len(walk); i++ {
			us := uses.Users(walk[i])
			if len(us) == 0 {
				return false // dead value: treat as independent
			}
			for _, u := range us {
				switch {
				case u.Op == ir.OpCondBr:
					if !st.folded(u.Block) {
						return false // feeds a live branch: the branch site covers it
					}
				case u.Width != 1:
					return false // escapes into non-boolean computation
				case !visited[u.ID]:
					visited[u.ID] = true
					walk = append(walk, u)
				}
			}
		}
		return true
	}
	for _, b := range st.f.Blocks {
		if st.eliminated[b.ID] {
			continue
		}
		for _, v := range b.Instrs {
			if v.Op == ir.OpICmp && !seen[v.ID] && !sinksOnlyToFoldedBranches(v) {
				seen[v.ID] = true
				sites = append(sites, condSite{b, v})
			}
		}
	}
	var out []*Report
	// Boolean oracle. A condition it proves simplifiable is decided
	// whether FilterOrigins kept the report or dropped it: the algebra
	// oracle would report at the same origin, so its report would be
	// dropped too.
	decided := make([]bool, n) // by Value.ID
	for _, s := range sites {
		if st.ctx.Err() != nil {
			return out
		}
		rep, ok := st.simplifyBool(s.blk, s.cond)
		decided[s.cond.ID] = ok
		if rep != nil {
			out = append(out, rep)
		}
	}
	// Algebra oracle, on conditions the boolean oracle left alone.
	for _, s := range sites {
		if st.ctx.Err() != nil {
			return out
		}
		if decided[s.cond.ID] {
			continue
		}
		if rep := st.simplifyAlgebra(s.blk, s.cond); rep != nil {
			out = append(out, rep)
		}
	}
	return out
}

// valueIDBound returns the length of a slice indexed by the Value.ID
// of f's values and their operands.
func valueIDBound(f *ir.Func) int {
	n := 0
	for _, b := range f.Blocks {
		for v := range b.All() {
			n = max(n, v.ID)
			for _, a := range v.Args {
				if a != nil {
					n = max(n, a.ID)
				}
			}
		}
	}
	return n + 1
}

// simplifyBool proposes true and false for a branch condition
// (paper §3.2.3, boolean oracle). It reports whether a proposal held
// (phase 2 Unsat), and the report, nil when FilterOrigins dropped it.
func (st *funcState) simplifyBool(blk *ir.Block, cond *ir.Value) (*Report, bool) {
	e := st.enc.value(cond)
	if e.Op() == bv.OpConst {
		return nil, false // already constant: trivially simplified
	}
	r := st.enc.reachability(blk)
	st.wellDefinedTerms(blk, true) // ∆'s terms come before the proposals'
	b := st.enc.b
	for _, proposal := range []bool{true, false} {
		ne := b.Xor(e, b.Bool(proposal)) // e(x) ≠ e'(x)
		v := st.decide(blk, true, ne, r)
		if v.p1 != bv.Sat {
			return nil, false
		}
		if v.p2 == bv.Unsat {
			return st.report(AlgoSimplifyBool, blk, cond, boolName(proposal), b.And(ne, r), v), true
		}
	}
	return nil, false
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
	ne := b.Xor(st.enc.value(cond), prop)
	if ne.IsConstBool(false) {
		return nil // syntactically identical already: reachability is not built
	}
	r := st.enc.reachability(blk)
	if v := st.decide(blk, true, ne, r); v.p2 == bv.Unsat {
		return st.report(AlgoSimplifyAlgebra, blk, cond, desc, b.And(ne, r), v)
	}
	return nil
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
	if sameValue(sum.Args[0], base) {
		off = sum.Args[1]
	} else if sameValue(sum.Args[1], base) {
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

// sameValue reports whether a and b are one value: the same value, or
// constants of one width and value, which the IR keeps as separate
// values and the bv builder interns as one term.
func sameValue(a, b *ir.Value) bool {
	if a == b {
		return true
	}
	x, ok := a.ConstInt()
	y, ok2 := b.ConstInt()
	return ok && ok2 && a.Width == b.Width && x == y
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
// The unsat core of v prunes the candidate set first.
func (st *funcState) minimalUBSet(h *bv.Term, v verdict) []UBRef {
	candidates := v.core
	if len(candidates) == 0 {
		for i := range v.negs {
			candidates = append(candidates, i)
		}
	}
	if st.c.opts.MinUBSets {
		var minimal []int
		for _, masked := range candidates {
			assumptions := []*bv.Term{h}
			for _, j := range candidates {
				if j != masked {
					assumptions = append(assumptions, v.negs[j])
				}
			}
			if st.solver.SolveContext(st.ctx, assumptions...) == bv.Sat {
				minimal = append(minimal, masked)
			}
		}
		if len(minimal) > 0 {
			candidates = minimal
		}
	}
	var out []UBRef
	seen := map[UBRef]bool{}
	for _, i := range candidates {
		r := UBRef{Kind: v.kept[i].Kind, Pos: v.kept[i].Pos}
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
