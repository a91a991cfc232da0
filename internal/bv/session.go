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
// Most of those queries are Sat, and a satisfying assignment for one is
// often one for the next: the Δ query of a pair adds conditions that
// the reachability model usually meets already, and the masking loop
// drops assumptions from a query that was Sat. An incremental session
// therefore keeps a small ring of recent satisfying assignments to the
// blasted input variables (KLEE's counterexample cache, applied inside
// one session). Before it blasts anything for a query, it evaluates the
// assumptions concretely under each stored assignment (eval.go),
// reading variables the assignment lacks as zero; if one makes every
// assumption true, the query is Sat without search, and that
// assignment moves to the front of the ring. The check runs after the
// constant shortcut and the cancelled-context check, so FastPaths
// counts what it always did and a cancelled query still returns
// Unknown. It is sound whatever the SAT core does: a Session asserts
// nothing permanently, so every clause is a Tseitin definition (or the
// unit fixing the constant-true literal) or learned from them, and any
// input assignment extends to a model of all of them. An assignment
// under which every assumption evaluates true therefore proves the
// query satisfiable. On Unsat the search still runs and produces the
// core.
//
// The same type also provides the non-incremental reference semantics
// the differential test layer compares against: with Scratch set, every
// query gets a fresh SAT core and a fresh blaster, exactly as if the
// query were the first one ever issued. Verdicts must be identical in
// both modes — only the work differs — and tests assert as much.
// Scratch mode keeps no witnesses, so it stays an independent oracle.

import (
	"context"
	"math/big"
	"slices"
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

	// inc is the incremental solver: NewSession's spare, or created
	// by the first query. Scratch mode leaves it unused.
	inc *Solver
	cur *Solver // solver that produced the last verdict, for model access

	// wit holds the stored satisfying assignments. It stays nil until
	// an incremental session's first SAT-core Sat, so the many
	// sessions that never reach one do not pay for it.
	wit       *witnesses
	witnessed bool // the last verdict came from wit.ring[0]

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
	// WitnessHits counts queries answered Sat by a stored assignment,
	// without blasting or search. Always zero in Scratch mode.
	WitnessHits int64

	scratchBlasts int64 // terms blasted by discarded scratch solvers
	scratchDrops  int64 // learnts dropped by discarded scratch solvers
}

// witnessSlots is how many satisfying assignments a session keeps. On
// the benchmark workloads eight answer as many queries as 16 or 32,
// and four or fewer give up much of the gain (EXPERIMENTS.md).
const witnessSlots = 8

// NewSession returns a session for terms created by bld. If spare is
// not nil, it is a solver an earlier session gave back with Release:
// NewSession resets it, and the session uses it as its incremental
// solver, so the storage its SAT core and blaster grew before is used
// again instead of grown from nil. A reset solver answers every query
// exactly as a new one would. Scratch mode leaves spare unused.
func NewSession(bld *Builder, spare *Solver) *Session {
	if spare != nil {
		spare.reset(bld)
	}
	return &Session{bld: bld, inc: spare}
}

// Release ends the session and gives back its incremental solver for a
// later NewSession; it returns nil if the session has none. The
// session must not be used afterwards. Until that NewSession resets
// it, the solver still refers to this session's terms.
func (s *Session) Release() *Solver {
	sv := s.inc
	s.inc, s.cur = nil, nil
	return sv
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
// reusing the session's encoding, learned clauses and stored
// assignments (or from scratch when Scratch is set). Assumptions are
// not retained across calls.
func (s *Session) Solve(assumptions ...*Term) Result {
	return s.SolveContext(context.Background(), assumptions...)
}

// SolveContext is Solve under a caller-supplied context: once ctx is
// cancelled or past its deadline the query returns Unknown within one
// solver check interval, and every later query on the session
// short-circuits before blasting. The checker threads its per-request
// context through here, down to the CDCL search loop.
func (s *Session) SolveContext(ctx context.Context, assumptions ...*Term) Result {
	res, _ := s.query(ctx, assumptions, false)
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
	return s.query(ctx, assumptions, true)
}

// query runs one query: the solver's constant and cancellation checks,
// then (incremental mode) the witness ring, then the SAT search, whose
// Sat model joins the ring.
func (s *Session) query(ctx context.Context, assumptions []*Term, wantCore bool) (Result, []int) {
	sv := s.solverForQuery()
	blasts, fast, timeouts, learnts := sv.Blasts(), sv.FastPaths, sv.Timeouts, sv.LearnedClauses()
	s.witnessed = false
	res, core, done := sv.begin(ctx, assumptions)
	if !done && s.wit != nil && s.wit.hit(assumptions) {
		res, done = Sat, true
		s.WitnessHits++
		s.witnessed = true
	}
	if !done {
		if wantCore {
			res, core = sv.searchCore(ctx, assumptions)
		} else {
			res = sv.search(ctx, assumptions)
		}
		if res == Sat && !s.Scratch {
			if s.wit == nil {
				s.wit = &witnesses{}
			}
			s.wit.store(sv)
		}
	}
	s.account(sv, blasts, fast, timeouts, learnts)
	return res, core
}

// witnesses is a session's ring of up to witnessSlots satisfying
// assignments, most recently useful first. Each packs the values of
// the blasted input variables as 64-bit words, variable v at word
// offset inOff[v.ID()]-1; a variable blasted after an assignment was
// stored lies past its end and reads as 0.
type witnesses struct {
	ring    [][]uint64
	inOff   []int32 // by Term.ID: 1 + word offset of a blasted input; 0 if none
	inVars  int     // blaster inputs already given an offset
	inWords int     // words the inputs with offsets occupy
	ev      evaluator
	cur     []uint64  // the assignment ev reads variables from
	input   inputFunc // ws.read, bound once
}

// hit reports whether a stored assignment satisfies every assumption,
// and if so moves it to the front of the ring.
func (ws *witnesses) hit(assumptions []*Term) bool {
	for k, a := range ws.ring {
		if ws.satisfies(a, assumptions) {
			copy(ws.ring[1:k+1], ws.ring[:k])
			ws.ring[0] = a
			return true
		}
	}
	return false
}

// satisfies evaluates the assumptions under the stored assignment a,
// stopping at the first false one.
func (ws *witnesses) satisfies(a []uint64, assumptions []*Term) bool {
	ws.start(a)
	for _, t := range assumptions {
		if !t.IsConstBool(true) && !ws.ev.isTrue(t, ws.input) {
			return false
		}
	}
	return true
}

// start points the evaluator at a new assignment, a.
func (ws *witnesses) start(a []uint64) {
	if ws.input == nil {
		ws.input = ws.read
	}
	ws.cur = a
	ws.ev.reset()
}

// read reads v from the assignment being evaluated.
func (ws *witnesses) read(v *Term) []uint64 {
	if v.id >= len(ws.inOff) || ws.inOff[v.id] == 0 {
		return nil // never blasted
	}
	off := int(ws.inOff[v.id]) - 1
	end := off + (v.width+63)/64
	if end > len(ws.cur) {
		return nil // blasted after the assignment was stored
	}
	return ws.cur[off:end]
}

// store packs the SAT model's values of the blasted inputs into the
// front of the ring, reusing the buffer of the assignment it evicts.
func (ws *witnesses) store(sv *Solver) {
	inputs := sv.bl.inputs
	for _, in := range inputs[ws.inVars:] {
		if n := in.v.id + 1; n > len(ws.inOff) {
			ws.inOff = append(ws.inOff, make([]int32, max(n, 2*len(ws.inOff))-len(ws.inOff))...)
		}
		ws.inOff[in.v.id] = int32(ws.inWords + 1)
		ws.inWords += (in.v.width + 63) / 64
	}
	ws.inVars = len(inputs)

	if len(ws.ring) < witnessSlots {
		ws.ring = append(ws.ring, nil)
	}
	a := ws.ring[len(ws.ring)-1]
	copy(ws.ring[1:], ws.ring[:len(ws.ring)-1])
	a = slices.Grow(a[:0], ws.inWords)[:ws.inWords]
	clear(a)
	for _, in := range inputs {
		off := int(ws.inOff[in.v.id]) - 1
		for i, l := range in.lits {
			if sv.sat.ModelValue(l.Var()) != l.Neg() {
				a[off+i/64] |= 1 << (i % 64)
			}
		}
	}
	ws.ring[0] = a
}

// HasModel reports whether the last verdict carries a model: a Sat
// from the SAT core or from a stored assignment.
func (s *Session) HasModel() bool {
	return s.witnessed || s.cur != nil && s.cur.HasModel()
}

// Value returns the value of t under the model of the last Sat verdict;
// it panics (like Solver.Value) when no model is available. After a Sat
// answered by a stored assignment, the model is that assignment: t is
// evaluated concretely under it, with variables it does not bind read
// as zero, so any term of the session's builder has a value.
func (s *Session) Value(t *Term) *big.Int {
	if s.witnessed {
		s.wit.start(s.wit.ring[0])
		return s.wit.ev.value(t, s.wit.input)
	}
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
