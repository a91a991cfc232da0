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
// Unknown. It is sound whatever the SAT core does. There is no way to
// add a permanent constraint to a Session's solver: every query is
// decided under assumptions, so by construction every clause is a
// Tseitin definition (or the unit fixing the constant-true literal)
// or learned from them, and any input assignment extends to a model
// of all of them. An assignment under which every assumption
// evaluates true therefore proves the query satisfiable. On Unsat the
// search still runs and produces the core.
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

	"repro/internal/sat"
)

// Session answers a sequence of related satisfiability queries over
// terms from one Builder. The zero value is not usable; call
// NewSession. A Session is not safe for concurrent use.
type Session struct {
	bld *Builder
	// Scratch disables incremental reuse: each query is decided by a
	// fresh solver over a fresh CNF encoding. This is the reference
	// execution mode for differential testing and the baseline of
	// BenchmarkIncrementalVsScratch; verdicts are identical to
	// incremental mode, only the cost differs.
	Scratch bool
	// Timeout bounds each query's SAT search by wall clock, as a
	// context deadline layered over the caller's context; STACK's
	// evaluation (paper §6.4) used 5 seconds. MaxConflicts bounds it
	// deterministically by conflicts (useful in tests and benchmarks).
	// Zero means unbounded.
	Timeout      time.Duration
	MaxConflicts int64

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
	// verdicts; FastPaths counts verdicts decided from constant
	// assumptions (produced by the rewrite engine) without blasting.
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
			s.scratchBlasts += s.cur.bl.blasts
			s.scratchDrops += s.cur.sat.LearntsDropped
		}
		return newSolver(s.bld)
	}
	if s.inc == nil {
		s.inc = newSolver(s.bld)
	}
	return s.inc
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
// that were sufficient for the conflict (a non-minimal unsat core). It
// is the primitive STACK's minimal-UB-set masking loop builds on.
func (s *Session) SolveCore(assumptions ...*Term) (Result, []int) {
	return s.SolveCoreContext(context.Background(), assumptions...)
}

// SolveCoreContext is SolveCore under a caller-supplied context, with
// the cancellation contract of SolveContext.
func (s *Session) SolveCoreContext(ctx context.Context, assumptions ...*Term) (Result, []int) {
	return s.query(ctx, assumptions, true)
}

// query runs one query: the constant shortcut, then the cancelled
// check, then (incremental mode) the witness ring, then blasting and
// the SAT search, whose Sat model joins the ring.
func (s *Session) query(ctx context.Context, assumptions []*Term, wantCore bool) (Result, []int) {
	sv := s.solverForQuery()
	s.cur, s.witnessed = sv, false
	sv.modelValid = false
	s.Queries++
	s.LearntsReused += int64(sv.sat.NumLearnts())
	if res, core, ok := constShortcut(assumptions); ok {
		s.FastPaths++
		return res, core
	}
	if ctx != nil && ctx.Err() != nil {
		s.Timeouts++
		return Unknown, nil
	}
	if s.wit != nil && s.wit.hit(assumptions) {
		s.WitnessHits++
		s.witnessed = true
		return Sat, nil
	}
	blasts := sv.bl.blasts
	res, core := s.search(ctx, sv, assumptions, wantCore)
	if sv.bl.blasts > blasts {
		s.BlastPasses++
	}
	switch res {
	case Sat:
		sv.modelValid = true
		if !s.Scratch {
			if s.wit == nil {
				s.wit = &witnesses{}
			}
			s.wit.store(sv)
		}
	case Unknown:
		s.Timeouts++
	}
	return res, core
}

// constShortcut answers a query its assumptions decide without SAT
// search: any constant-false assumption makes it Unsat (the index of
// the first one is returned as its core), and if every assumption is
// constant true it is Sat, because the session's clauses alone are
// always satisfiable (see the package comment above). ok is false when
// the SAT core must run after all.
func constShortcut(assumptions []*Term) (res Result, core []int, ok bool) {
	allTrue := true
	for i, t := range assumptions {
		if t.IsConstBool(false) {
			return Unsat, []int{i}, true
		}
		if !t.IsConstBool(true) {
			allTrue = false
		}
	}
	if allTrue {
		return Sat, nil, true
	}
	return Unknown, nil, false
}

// search blasts the assumptions into sv and runs its SAT core on them,
// under ctx and the session's Timeout and MaxConflicts. With wantCore,
// every assumption becomes a SAT assumption and an Unsat verdict comes
// with the indices of those in the SAT core's failed-assumption set;
// without it, constant-true assumptions are skipped as vacuous.
func (s *Session) search(ctx context.Context, sv *Solver, assumptions []*Term, wantCore bool) (Result, []int) {
	lits := make([]sat.Lit, 0, len(assumptions))
	for _, t := range assumptions {
		if !wantCore && t.IsConstBool(true) {
			continue
		}
		lits = append(lits, sv.litFor(t))
	}
	if s.Timeout > 0 {
		if ctx == nil {
			ctx = context.Background()
		}
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, s.Timeout)
		defer cancel()
	}
	sv.sat.Ctx, sv.sat.MaxConflicts = ctx, s.MaxConflicts
	switch sv.sat.Solve(lits...) {
	case sat.Sat:
		return Sat, nil
	case sat.Unsat:
		if !wantCore {
			return Unsat, nil
		}
		failed := sv.sat.FailedAssumptions()
		var idx []int
		for i, l := range lits {
			if slices.Contains(failed, l) {
				idx = append(idx, i)
			}
		}
		return Unsat, idx
	}
	return Unknown, nil
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

// HasModel reports whether the last verdict carries a model, i.e.
// whether Value may be called: a Sat from the SAT core or from a
// stored assignment. A Sat decided from constant assumptions has none.
func (s *Session) HasModel() bool {
	return s.witnessed || s.cur != nil && s.cur.modelValid
}

// Value returns the value of t under the model of the last Sat verdict,
// and panics when HasModel is false. After a Sat from the SAT core, a
// variable the query did not constrain reads as zero, and a composite
// term the query did not blast panics (see Solver.value). After a Sat
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
	return s.cur.value(t)
}

// Blasts returns the total number of terms the session lowered to CNF,
// summed over every solver it ran (one for the whole session when
// incremental; one per query in Scratch mode). Terms are blasted at
// most once per solver; the ratio of queries to blasts measures how
// much encoding work incremental use amortizes.
func (s *Session) Blasts() int64 {
	n := s.scratchBlasts
	if s.inc != nil {
		n += s.inc.bl.blasts
	}
	if s.Scratch && s.cur != nil {
		n += s.cur.bl.blasts
	}
	return n
}

// LearntsDropped returns the learned clauses the SAT core's mid-search
// database reductions discarded over the session's lifetime.
func (s *Session) LearntsDropped() int64 {
	n := s.scratchDrops
	if s.inc != nil {
		n += s.inc.sat.LearntsDropped
	}
	if s.Scratch && s.cur != nil {
		n += s.cur.sat.LearntsDropped
	}
	return n
}
