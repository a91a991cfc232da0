package bv

// Incremental assumption-based solving sessions. The STACK checker
// issues its queries in closely related pairs per candidate (the
// reachability query, then the "optimization-safe?" query over the same
// function encoding, then the Fig. 8 masking loop over the same
// assumption terms), so the encoding work is shared almost entirely
// between queries. A Session exploits that: it keeps one SAT core and
// one term→CNF cache alive for the whole sequence, blasts each shared
// term exactly once, retains learned clauses across queries, and
// answers every query under assumptions (the sat.SolveAssuming
// interface) instead of rebuilding the solver.
//
// The same type also provides the non-incremental reference semantics
// the differential test layer compares against: with Scratch set, every
// query gets a fresh SAT core and a fresh blaster, exactly as if the
// query were the first one ever issued. Verdicts must be identical in
// both modes — only the work differs — and tests assert as much.

import (
	"context"
	"math/big"
	"time"
)

// Session answers a sequence of related satisfiability queries over
// terms from one Builder. The zero value is not usable; call
// NewSession. Like Solver, a Session is not safe for concurrent use.
type Session struct {
	bld *Builder
	// Scratch disables incremental reuse: each query is decided by a
	// fresh solver over a fresh CNF encoding. This is the reference
	// execution mode for differential testing and the baseline of
	// BenchmarkIncrementalVsScratch; verdicts are identical to
	// incremental mode, only the cost differs.
	Scratch bool
	// Timeout and MaxConflicts bound each query, as on Solver.
	Timeout      time.Duration
	MaxConflicts int64
	// LearntBudget, when positive, bounds the learned clauses the
	// incremental solver carries from one query into the next: after
	// each query the learnt database is trimmed toward the budget
	// (locked and binary clauses always survive; see
	// sat.Solver.TrimLearnts). Mid-search reduceDB trims by activity
	// during a single query; the budget bounds what outlives the query,
	// keeping a long session's memory proportional to the budget rather
	// than to its history. Zero means unbounded (the historical
	// behavior). Ignored in Scratch mode, where nothing outlives a
	// query anyway.
	LearntBudget int

	inc *Solver // lazily created incremental solver (nil in Scratch mode)
	cur *Solver // solver that produced the last verdict, for model access

	// Queries counts Solve/SolveCore calls; Timeouts counts Unknown
	// verdicts; FastPaths counts queries answered from constant
	// assumptions without CDCL search.
	Queries   int64
	Timeouts  int64
	FastPaths int64
	// BlastPasses counts queries that had to lower at least one new
	// term to CNF. Queries/BlastPasses is the amortization ratio: in
	// Scratch mode every SAT-core query is a blast pass, while an
	// incremental session front-loads the encoding and answers later
	// queries (the Δ query of a pair, the masking loop) from cache.
	BlastPasses int64
	// LearntsReused sums, over all queries, the learned clauses already
	// retained when the query started — the conflict knowledge reused
	// instead of rediscovered. Always zero in Scratch mode.
	LearntsReused int64

	scratchBlasts int64 // terms blasted by discarded scratch solvers
	scratchDrops  int64 // learnts dropped by discarded scratch solvers
}

// NewSession returns a session for terms created by bld.
func NewSession(bld *Builder) *Session {
	return &Session{bld: bld}
}

// solverForQuery returns the solver the next query runs on: the shared
// incremental solver, or a fresh one per query in Scratch mode.
func (s *Session) solverForQuery() *Solver {
	if s.Scratch {
		if s.cur != nil {
			s.scratchBlasts += s.cur.Blasts()
			s.scratchDrops += s.cur.LearntsDropped()
		}
		sv := NewSolver(s.bld)
		sv.Timeout = s.Timeout
		sv.MaxConflicts = s.MaxConflicts
		return sv
	}
	if s.inc == nil {
		s.inc = NewSolver(s.bld)
	}
	s.inc.Timeout = s.Timeout
	s.inc.MaxConflicts = s.MaxConflicts
	return s.inc
}

// account folds one query's effort deltas into the session counters.
func (s *Session) account(sv *Solver, blastsBefore int64, fastBefore, timeoutsBefore int64, learntsBefore int) {
	s.Queries++
	s.FastPaths += sv.FastPaths - fastBefore
	s.Timeouts += sv.Timeouts - timeoutsBefore
	if sv.Blasts() > blastsBefore {
		s.BlastPasses++
	}
	s.LearntsReused += int64(learntsBefore)
	s.cur = sv
	if s.LearntBudget > 0 && !s.Scratch {
		sv.TrimLearnts(s.LearntBudget)
	}
}

// Solve decides whether all assumption terms are jointly satisfiable,
// reusing the session's encoding and learned clauses (or from scratch
// when Scratch is set). Assumptions are not retained across calls.
func (s *Session) Solve(assumptions ...*Term) Result {
	return s.SolveContext(context.Background(), assumptions...)
}

// SolveContext is Solve under a caller-supplied context: once ctx is
// cancelled or past its deadline the query returns Unknown within one
// solver check interval, and every later query on the session
// short-circuits before blasting. The checker threads its per-request
// context through here, down to the CDCL search loop.
func (s *Session) SolveContext(ctx context.Context, assumptions ...*Term) Result {
	sv := s.solverForQuery()
	blasts, fast, timeouts, learnts := sv.Blasts(), sv.FastPaths, sv.Timeouts, sv.LearnedClauses()
	res := sv.SolveContext(ctx, assumptions...)
	s.account(sv, blasts, fast, timeouts, learnts)
	return res
}

// SolveCore is Solve plus, on Unsat, the subset of assumption indices
// sufficient for the conflict, as on Solver.SolveCore.
func (s *Session) SolveCore(assumptions ...*Term) (Result, []int) {
	return s.SolveCoreContext(context.Background(), assumptions...)
}

// SolveCoreContext is SolveCore under a caller-supplied context, with
// the cancellation contract of SolveContext.
func (s *Session) SolveCoreContext(ctx context.Context, assumptions ...*Term) (Result, []int) {
	sv := s.solverForQuery()
	blasts, fast, timeouts, learnts := sv.Blasts(), sv.FastPaths, sv.Timeouts, sv.LearnedClauses()
	res, core := sv.SolveCoreContext(ctx, assumptions...)
	s.account(sv, blasts, fast, timeouts, learnts)
	return res, core
}

// HasModel reports whether the last verdict carries a model.
func (s *Session) HasModel() bool { return s.cur != nil && s.cur.HasModel() }

// Value returns the value of t under the model of the last Sat verdict;
// it panics (like Solver.Value) when no model is available.
func (s *Session) Value(t *Term) *big.Int {
	if s.cur == nil {
		panic("bv: Value called on a session with no queries")
	}
	return s.cur.Value(t)
}

// Blasts returns the total number of terms the session lowered to CNF,
// summed over every solver it ran (one for the whole session when
// incremental; one per query in Scratch mode).
func (s *Session) Blasts() int64 {
	n := s.scratchBlasts
	if s.inc != nil {
		n += s.inc.Blasts()
	}
	if s.Scratch && s.cur != nil {
		n += s.cur.Blasts()
	}
	return n
}

// LearntsDropped returns the learned clauses discarded over the
// session's lifetime, by mid-search database reductions and by the
// session's LearntBudget trims.
func (s *Session) LearntsDropped() int64 {
	n := s.scratchDrops
	if s.inc != nil {
		n += s.inc.LearntsDropped()
	}
	if s.Scratch && s.cur != nil {
		n += s.cur.LearntsDropped()
	}
	return n
}
