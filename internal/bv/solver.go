package bv

import (
	"context"
	"math/big"
	"time"

	"repro/internal/sat"
)

// Result is the verdict of a satisfiability query.
type Result int

// Query verdicts.
const (
	Unknown Result = iota // solver timed out or exhausted its budget
	Sat
	Unsat
)

func (r Result) String() string {
	switch r {
	case Sat:
		return "sat"
	case Unsat:
		return "unsat"
	default:
		return "unknown"
	}
}

// Solver decides satisfiability of width-1 terms by bit-blasting into
// a CDCL SAT solver. A Solver accumulates the blasted formula across
// calls; terms from the same Builder share structure, so incremental
// use is cheap. It intentionally mirrors the slice of the Boolector
// API that STACK used: assert, solve-under-assumptions, model values,
// failed assumptions, and a per-query timeout.
type Solver struct {
	bld *Builder
	sat *sat.Solver
	bl  *blaster
	// Timeout bounds each Solve call; zero means no deadline. STACK's
	// evaluation (paper §6.4) used 5 seconds.
	Timeout time.Duration
	// MaxConflicts optionally bounds solver effort deterministically
	// (useful in tests and benchmarks); zero means unbounded.
	MaxConflicts int64
	// Queries counts Solve calls; Timeouts counts Unknown verdicts.
	// FastPaths counts queries answered from constant assumptions
	// (produced by the rewrite engine) without running CDCL search.
	Queries   int64
	Timeouts  int64
	FastPaths int64

	asserted   bool // a permanent constraint has been added
	modelValid bool // last verdict was Sat from a real SAT run
}

// NewSolver returns a solver for terms created by bld.
func NewSolver(bld *Builder) *Solver {
	s := sat.New()
	return &Solver{bld: bld, sat: s, bl: newBlaster(s)}
}

// reset puts s back in the state NewSolver(bld) gives, keeping the
// storage of its SAT core and of its blaster cache.
func (s *Solver) reset(bld *Builder) {
	s.bl.reset()
	*s = Solver{bld: bld, sat: s.sat, bl: s.bl}
}

// litFor blasts a width-1 term and returns its literal.
func (s *Solver) litFor(t *Term) sat.Lit {
	if t.Width() != 1 {
		panic("bv: satisfiability query on non-boolean term")
	}
	return s.bl.blast(s.bld, t)[0]
}

// Assert permanently constrains t (width 1) to be true.
func (s *Solver) Assert(t *Term) {
	if t.IsConstBool(true) {
		return // vacuous
	}
	s.asserted = true
	s.sat.AddClause(s.litFor(t))
}

// constShortcut inspects the assumptions for a verdict that needs no
// SAT search: any constant-false assumption makes the query Unsat (the
// index of the first one is returned as its core), and if every
// assumption is constant true and nothing has been asserted the query
// is trivially Sat. The third return is false when the SAT core must
// run after all.
func (s *Solver) constShortcut(assumptions []*Term) (Result, []int, bool) {
	allTrue := true
	for i, t := range assumptions {
		if t.IsConstBool(false) {
			s.FastPaths++
			return Unsat, []int{i}, true
		}
		if !t.IsConstBool(true) {
			allTrue = false
		}
	}
	if allTrue && !s.asserted {
		s.FastPaths++
		return Sat, nil, true
	}
	return Unknown, nil, false
}

// queryContext prepares the SAT core for one query under ctx: the
// solver's per-query Timeout becomes a context deadline layered over
// the caller's context, so cancellation and wall-clock budget flow
// through one mechanism. The returned cancel func must be called when
// the query finishes to release the deadline timer.
func (s *Solver) queryContext(ctx context.Context) context.CancelFunc {
	cancel := func() {}
	if s.Timeout > 0 {
		if ctx == nil {
			ctx = context.Background()
		}
		ctx, cancel = context.WithTimeout(ctx, s.Timeout)
	}
	s.sat.Ctx = ctx
	s.sat.MaxConflicts = s.MaxConflicts
	return cancel
}

// cancelled reports (and accounts for) a query aborted by its context
// before reaching the SAT core.
func (s *Solver) cancelled(ctx context.Context) bool {
	if ctx != nil && ctx.Err() != nil {
		s.Timeouts++
		return true
	}
	return false
}

// Solve decides whether the permanent assertions plus all assumption
// terms are jointly satisfiable. Assumptions are not retained across
// calls. It is SolveContext without a cancellation context.
//
// Queries whose assumptions the rewrite engine reduced to constants are
// answered directly, without bit-blasting or CDCL search. Such a Sat
// verdict carries no model: the model accessors (Value, ValueBool)
// panic unless the last verdict was a Sat produced by the SAT core.
func (s *Solver) Solve(assumptions ...*Term) Result {
	return s.SolveContext(context.Background(), assumptions...)
}

// SolveContext is Solve under a caller-supplied context: the query
// returns Unknown promptly (within one solver check interval) once ctx
// is cancelled or passes its deadline, and an already-cancelled context
// short-circuits before any bit-blasting.
func (s *Solver) SolveContext(ctx context.Context, assumptions ...*Term) Result {
	if res, _, done := s.begin(ctx, assumptions); done {
		return res
	}
	return s.search(ctx, assumptions)
}

// begin opens a query: it counts it, invalidates the previous model,
// and answers the query when that needs no bit-blasting — from
// constant assumptions (constShortcut) or an already-cancelled
// context. done is false when the query still has to be searched.
func (s *Solver) begin(ctx context.Context, assumptions []*Term) (res Result, core []int, done bool) {
	s.Queries++
	s.modelValid = false
	if res, core, ok := s.constShortcut(assumptions); ok {
		return res, core, true
	}
	if s.cancelled(ctx) {
		return Unknown, nil, true
	}
	return Unknown, nil, false
}

// search blasts the assumptions and runs the SAT core on them: the
// part of SolveContext after begin.
func (s *Solver) search(ctx context.Context, assumptions []*Term) Result {
	lits := make([]sat.Lit, 0, len(assumptions))
	for _, t := range assumptions {
		if t.IsConstBool(true) {
			continue // vacuous under any model
		}
		lits = append(lits, s.litFor(t))
	}
	cancel := s.queryContext(ctx)
	defer cancel()
	switch s.sat.Solve(lits...) {
	case sat.Sat:
		s.modelValid = true
		return Sat
	case sat.Unsat:
		return Unsat
	default:
		s.Timeouts++
		return Unknown
	}
}

// Value returns the value of term t under the model of the last Sat
// verdict. Calling it in any other state — including after a Sat
// decided by the constant fast path, which has no model — is a caller
// bug and panics rather than returning stale bits.
//
// Variables and constants that were not part of the solved query (for
// example a variable the rewrite engine folded out of every
// assumption) are unconstrained by the model; their free bits read as
// zero, a don't-care completion that satisfies the query like any
// other. A *composite* term that was never blasted has no meaningful
// model value — its defining clauses postdate the model — so asking
// for one panics instead of returning bits that violate the term's own
// semantics.
//
// A Session answers some Sat queries from a stored satisfying
// assignment, without the SAT core; its Value then evaluates terms
// under that assignment instead (see Session.Value), where every term
// has a value.
func (s *Solver) Value(t *Term) *big.Int {
	if !s.modelValid {
		panic("bv: Value called without a model (last verdict was not a SAT-core Sat)")
	}
	if t.op != OpVar && t.op != OpConst && !s.bl.has(t) {
		panic("bv: Value of a composite term that was not part of the solved query")
	}
	lits := s.bl.blast(s.bld, t)
	v := new(big.Int)
	for i, l := range lits {
		bit := s.sat.ModelValue(l.Var())
		if l.Neg() {
			bit = !bit
		}
		if bit {
			v.SetBit(v, i, 1)
		}
	}
	return v
}

// SolveCore is Solve plus, on Unsat, the subset of assumption indices
// that were sufficient for the conflict (a non-minimal unsat core). It
// is the primitive STACK's minimal-UB-set masking loop builds on.
func (s *Solver) SolveCore(assumptions ...*Term) (Result, []int) {
	return s.SolveCoreContext(context.Background(), assumptions...)
}

// SolveCoreContext is SolveCore under a caller-supplied context, with
// the same cancellation contract as SolveContext.
func (s *Solver) SolveCoreContext(ctx context.Context, assumptions ...*Term) (Result, []int) {
	if res, core, done := s.begin(ctx, assumptions); done {
		return res, core
	}
	return s.searchCore(ctx, assumptions)
}

// searchCore is search with the Unsat core of SolveCoreContext.
func (s *Solver) searchCore(ctx context.Context, assumptions []*Term) (Result, []int) {
	lits := make([]sat.Lit, len(assumptions))
	for i, t := range assumptions {
		lits[i] = s.litFor(t)
	}
	cancel := s.queryContext(ctx)
	defer cancel()
	switch s.sat.Solve(lits...) {
	case sat.Sat:
		s.modelValid = true
		return Sat, nil
	case sat.Unsat:
		failed := s.sat.FailedAssumptions()
		inCore := make(map[sat.Lit]bool, len(failed))
		for _, l := range failed {
			inCore[l] = true
		}
		var idx []int
		for i, l := range lits {
			if inCore[l] {
				idx = append(idx, i)
			}
		}
		return Unsat, idx
	default:
		s.Timeouts++
		return Unknown, nil
	}
}

// Stats reports sizes of the underlying SAT instance.
func (s *Solver) Stats() (vars, clauses int) {
	return s.sat.NumVars(), s.sat.NumClauses()
}

// Blasts returns the number of terms this solver has lowered to CNF.
// Terms are blasted at most once per solver; the ratio of queries to
// blasts measures how much encoding work incremental use amortizes.
func (s *Solver) Blasts() int64 { return s.bl.blasts }

// HasModel reports whether the last verdict was a Sat produced by the
// SAT core, i.e. whether Value may be called. Fast-path Sat
// verdicts (constant assumptions) carry no model.
func (s *Solver) HasModel() bool { return s.modelValid }

// LearnedClauses returns the number of learned clauses currently
// retained by the SAT core. They persist across Solve calls, so this is
// the conflict knowledge the next query starts from.
func (s *Solver) LearnedClauses() int { return s.sat.NumLearnts() }

// TrimLearnts shrinks the SAT core's learned-clause database toward
// target between queries (see sat.Solver.TrimLearnts). Sessions with a
// LearntBudget call this after every query.
func (s *Solver) TrimLearnts(target int) { s.sat.TrimLearnts(target) }

// LearntsDropped returns the learned clauses the SAT core has discarded
// over its lifetime (mid-search reductions plus TrimLearnts calls).
func (s *Solver) LearntsDropped() int64 { return s.sat.LearntsDropped }
