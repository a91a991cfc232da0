// Package sat implements a CDCL (conflict-driven clause learning) SAT
// solver with two-literal watching, VSIDS-style activity ordering,
// first-UIP clause learning, Luby restarts, and solving under
// assumptions. It is the propositional engine underneath the bit-vector
// solver in internal/bv, standing in for the SAT core of Boolector,
// which the STACK paper used to decide elimination and simplification
// queries.
//
// # Clause storage
//
// Every clause lives in one flat arena of 32-bit words, and a clause
// is named by a cref, the offset of its header word. The header is
// len<<1 | learned. A learnt clause follows it with two words holding
// the bits of its float64 activity; a problem clause has none. The
// literals come after. So a problem clause of n literals takes n+1
// words and a learnt one n+3:
//
//	problem: [n<<1|0] [lit 0] ... [lit n-1]
//	learnt:  [n<<1|1] [act lo] [act hi] [lit 0] ... [lit n-1]
//
// Watchers and per-variable reasons hold crefs, not pointers, so the
// watch lists and the trail bookkeeping are pointer-free and the
// garbage collector never scans them. Detached clauses stay in the
// arena as garbage until the solver is dropped. The arena grows by
// append, which may move it: no slice of the arena (such as the one
// lits returns) may be held across a call to newClause.
package sat

import (
	"context"
	"math"
)

// Var is a propositional variable, numbered from 0.
type Var int

// Lit is a literal: a variable together with a sign. The encoding is
// the usual one (var<<1 | sign), where sign 1 means negated.
type Lit int

// NewLit returns the literal for v, negated if neg is true.
func NewLit(v Var, neg bool) Lit {
	l := Lit(v << 1)
	if neg {
		l |= 1
	}
	return l
}

// Var returns the variable of the literal.
func (l Lit) Var() Var { return Var(l >> 1) }

// Neg reports whether the literal is negated.
func (l Lit) Neg() bool { return l&1 == 1 }

// Not returns the complement literal.
func (l Lit) Not() Lit { return l ^ 1 }

// Status is the outcome of a Solve call.
type Status int

const (
	// Unknown means the solver gave up (deadline exceeded or budget
	// exhausted) before reaching a verdict.
	Unknown Status = iota
	// Sat means a satisfying assignment was found.
	Sat
	// Unsat means the formula (under the given assumptions) is
	// unsatisfiable.
	Unsat
)

func (s Status) String() string {
	switch s {
	case Sat:
		return "sat"
	case Unsat:
		return "unsat"
	default:
		return "unknown"
	}
}

type lbool int8

const (
	lUndef lbool = iota
	lTrue
	lFalse
)

func (b lbool) neg() lbool {
	switch b {
	case lTrue:
		return lFalse
	case lFalse:
		return lTrue
	}
	return lUndef
}

// cref names a clause by the arena offset of its header word.
type cref uint32

// noReason is the cref of no clause: the reason of decisions,
// assumptions and units, and propagate's "no conflict". The arena
// never grows far enough for a clause to start there.
const noReason cref = math.MaxUint32

// maxVars bounds the variable count: literals are stored in 32-bit
// arena words, so var<<1 | sign must fit in a uint32.
const maxVars = 1<<31 - 1

type watcher struct {
	c       cref
	blocker uint32 // a Lit
}

type varInfo struct {
	reason cref // antecedent clause, noReason for decisions/assumptions
	level  int32
}

// Solver is a CDCL SAT solver. The zero value is not usable; call New.
// A Solver is not safe for concurrent use.
type Solver struct {
	nVars        int
	arena        []uint32 // every clause; see the package doc
	clauses      []cref
	learnts      []cref
	watches      [][]watcher // indexed by Lit
	assign       []lbool     // indexed by Var
	info         []varInfo   // indexed by Var
	trail        []Lit
	trailLim     []int // decision-level boundaries in trail
	qhead        int
	activity     []float64
	varInc       float64
	claInc       float64
	order        *varHeap
	seen         []bool
	model        []lbool
	conflCore    []Lit // failed assumptions after Unsat under assumptions
	ok           bool  // false once the clause DB is unsat at level 0
	numAssumed   int   // decision levels occupied by assumptions
	Propagations int64
	Conflicts    int64
	Decisions    int64
	// Solves counts SolveAssuming/Solve calls on this solver; together
	// with NumLearnts it quantifies how much work an incremental caller
	// amortizes across queries.
	Solves int64
	// Ctx, if non-nil, is polled during search (every few hundred
	// conflicts, and between restarts): once it is cancelled or past
	// its deadline, the Solve call returns Unknown promptly. It is the
	// general cancellation mechanism — per-query wall-clock timeouts
	// are expressed as context deadlines by the bv layer — replacing
	// the one-off Deadline field this solver used to carry.
	Ctx context.Context
	// MaxConflicts, if nonzero, bounds the number of conflicts per
	// Solve call before returning Unknown.
	MaxConflicts int64
	// LearntFloor is the learnt-count below which reduceDB is a no-op.
	// It starts at learntFloorBase and grows geometrically by
	// LearntFloorGrowth after each reduction, so long-lived incremental
	// solvers are allowed a progressively larger working set instead of
	// thrashing the same ceiling. The default growth of 1 reproduces
	// the historical fixed floor of 100.
	LearntFloor       int
	LearntFloorGrowth float64
	// LearntsDropped counts learned clauses removed by reduceDB and
	// TrimLearnts over the solver's lifetime.
	LearntsDropped int64

	// Scratch buffers reused across calls: conflict analysis
	// (analyzeBuf/touchedBuf) and reduceDB's median selection
	// (medianBuf) previously allocated per call.
	analyzeBuf []Lit
	touchedBuf []Var
	medianBuf  []float64
	addBuf     []Lit
}

const learntFloorBase = 100

// newClause appends a clause holding a copy of lits to the arena and
// returns its cref. Learnt clauses start with activity 0. It may move
// the arena, so callers must not hold a slice of it across the call.
func (s *Solver) newClause(lits []Lit, learned bool) cref {
	header := uint32(len(lits)) << 1
	words := 1 + len(lits)
	if learned {
		header |= 1
		words += 2
	}
	checkArena(len(s.arena), words)
	c := cref(len(s.arena))
	s.arena = append(s.arena, header)
	if learned {
		s.arena = append(s.arena, 0, 0)
	}
	for _, l := range lits {
		s.arena = append(s.arena, uint32(l))
	}
	return c
}

// checkArena panics if a clause of the given number of words, appended
// to an arena of used words, would reach noReason: past that, crefs and
// literal offsets no longer fit in 32 bits.
func checkArena(used, words int) {
	if used+words > int(noReason) {
		panic("sat: clause arena limit")
	}
}

// learned reports whether c is a learnt clause.
func (s *Solver) learned(c cref) bool { return s.arena[c]&1 == 1 }

// lits returns the literal words of c. The slice aliases the arena and
// is invalidated by the next newClause.
func (s *Solver) lits(c cref) []uint32 {
	h := s.arena[c]
	start := uint32(c) + 1 + (h&1)<<1
	end := start + h>>1
	return s.arena[start:end:end]
}

// act returns the activity of the learnt clause c.
func (s *Solver) act(c cref) float64 {
	return math.Float64frombits(uint64(s.arena[c+1]) | uint64(s.arena[c+2])<<32)
}

// setAct sets the activity of the learnt clause c.
func (s *Solver) setAct(c cref, a float64) {
	b := math.Float64bits(a)
	s.arena[c+1], s.arena[c+2] = uint32(b), uint32(b>>32)
}

// New returns an empty solver.
func New() *Solver {
	s := &Solver{varInc: 1, claInc: 1, ok: true, LearntFloor: learntFloorBase, LearntFloorGrowth: 1}
	s.order = newVarHeap(&s.activity)
	return s
}

// NewVar allocates and returns a fresh variable. It panics past
// 2^31-1 variables, the most whose literals fit in 32 bits.
func (s *Solver) NewVar() Var {
	if s.nVars >= maxVars {
		panic("sat: variable limit")
	}
	v := Var(s.nVars)
	s.nVars++
	s.watches = append(s.watches, nil, nil)
	s.assign = append(s.assign, lUndef)
	s.info = append(s.info, varInfo{reason: noReason})
	s.activity = append(s.activity, 0)
	s.seen = append(s.seen, false)
	s.order.insert(v)
	return v
}

// NumVars returns the number of allocated variables.
func (s *Solver) NumVars() int { return s.nVars }

// NumClauses returns the number of problem (non-learned) clauses.
func (s *Solver) NumClauses() int { return len(s.clauses) }

// NumLearnts returns the number of learned clauses currently retained.
// Learned clauses survive across SolveAssuming calls, so a later query
// on the same clause database starts from the conflicts of every
// earlier one; this is the quantity incremental callers watch to see
// that reuse is actually happening.
func (s *Solver) NumLearnts() int { return len(s.learnts) }

func (s *Solver) value(l Lit) lbool {
	v := s.assign[l.Var()]
	if l.Neg() {
		return v.neg()
	}
	return v
}

// AddClause adds a clause (a disjunction of literals) to the solver.
// It returns false if the clause database is already unsatisfiable.
// Adding an empty clause makes the database unsatisfiable.
func (s *Solver) AddClause(lits ...Lit) bool {
	if !s.ok {
		return false
	}
	if len(s.trailLim) != 0 {
		panic("sat: AddClause called during search")
	}
	// Normalize into the reusable scratch buffer: drop duplicate and
	// false literals, detect tautology (sort-free dedup; clauses are
	// small).
	norm := s.addBuf[:0]
loop:
	for _, l := range lits {
		if int(l.Var()) >= s.nVars {
			panic("sat: literal references unallocated variable")
		}
		switch s.value(l) {
		case lTrue:
			return true // satisfied at level 0
		case lFalse:
			continue // drop
		}
		for _, m := range norm {
			if m == l {
				continue loop
			}
			if m == l.Not() {
				return true // tautology
			}
		}
		norm = append(norm, l)
	}
	s.addBuf = norm[:0]
	switch len(norm) {
	case 0:
		s.ok = false
		return false
	case 1:
		s.uncheckedEnqueue(norm[0], noReason)
		if s.propagate() != noReason {
			s.ok = false
			return false
		}
		return true
	}
	c := s.newClause(norm, false)
	s.clauses = append(s.clauses, c)
	s.attach(c)
	return true
}

func (s *Solver) attach(c cref) {
	lits := s.lits(c)
	l0, l1 := Lit(lits[0]), Lit(lits[1])
	s.watches[l0.Not()] = append(s.watches[l0.Not()], watcher{c, lits[1]})
	s.watches[l1.Not()] = append(s.watches[l1.Not()], watcher{c, lits[0]})
}

func (s *Solver) detach(c cref) {
	lits := s.lits(c)
	s.removeWatch(Lit(lits[0]).Not(), c)
	s.removeWatch(Lit(lits[1]).Not(), c)
}

func (s *Solver) removeWatch(l Lit, c cref) {
	ws := s.watches[l]
	for i := range ws {
		if ws[i].c == c {
			ws[i] = ws[len(ws)-1]
			s.watches[l] = ws[:len(ws)-1]
			return
		}
	}
}

func (s *Solver) uncheckedEnqueue(l Lit, reason cref) {
	v := l.Var()
	if l.Neg() {
		s.assign[v] = lFalse
	} else {
		s.assign[v] = lTrue
	}
	s.info[v] = varInfo{reason: reason, level: int32(s.decisionLevel())}
	s.trail = append(s.trail, l)
}

func (s *Solver) decisionLevel() int { return len(s.trailLim) }

func (s *Solver) newDecisionLevel() { s.trailLim = append(s.trailLim, len(s.trail)) }

// propagate performs unit propagation; it returns a conflicting clause
// or noReason.
func (s *Solver) propagate() cref {
	for s.qhead < len(s.trail) {
		p := s.trail[s.qhead]
		s.qhead++
		s.Propagations++
		falseLit := uint32(p.Not())
		ws := s.watches[p]
		kept := ws[:0]
		confl := noReason
		for i := 0; i < len(ws); i++ {
			w := ws[i]
			if confl != noReason {
				kept = append(kept, w)
				continue
			}
			if s.value(Lit(w.blocker)) == lTrue {
				kept = append(kept, w)
				continue
			}
			c := w.c
			lits := s.lits(c)
			// Make sure the false literal is at lits[1].
			if lits[0] == falseLit {
				lits[0], lits[1] = lits[1], lits[0]
			}
			first := lits[0]
			if first != w.blocker && s.value(Lit(first)) == lTrue {
				kept = append(kept, watcher{c, first})
				continue
			}
			// Look for a new watch.
			found := false
			for k := 2; k < len(lits); k++ {
				if s.value(Lit(lits[k])) != lFalse {
					lits[1], lits[k] = lits[k], lits[1]
					nw := Lit(lits[1]).Not()
					s.watches[nw] = append(s.watches[nw], watcher{c, first})
					found = true
					break
				}
			}
			if found {
				continue
			}
			// Clause is unit or conflicting.
			kept = append(kept, watcher{c, first})
			if s.value(Lit(first)) == lFalse {
				confl = c
				s.qhead = len(s.trail)
				continue
			}
			s.uncheckedEnqueue(Lit(first), c)
		}
		s.watches[p] = kept
		if confl != noReason {
			return confl
		}
	}
	return noReason
}

// analyze performs first-UIP conflict analysis, returning the learned
// clause (asserting literal first) and the backtrack level. The
// returned slice aliases a scratch buffer reused by the next call;
// callers must copy it before retaining (search copies it into the
// arena).
func (s *Solver) analyze(confl cref) ([]Lit, int) {
	learnt := append(s.analyzeBuf[:0], 0) // placeholder for asserting literal
	pathC := 0
	var p Lit = -1
	touched := s.touchedBuf[:0] // every var whose seen flag was set
	idx := len(s.trail) - 1
	for {
		if s.learned(confl) {
			s.bumpClause(confl)
		}
		for _, w := range s.lits(confl) {
			q := Lit(w)
			if p != -1 && q == p {
				continue
			}
			v := q.Var()
			if !s.seen[v] && s.info[v].level > 0 {
				s.seen[v] = true
				touched = append(touched, v)
				s.bumpVar(v)
				if int(s.info[v].level) >= s.decisionLevel() {
					pathC++
				} else {
					learnt = append(learnt, q)
				}
			}
		}
		// Find next literal to inspect.
		for !s.seen[s.trail[idx].Var()] {
			idx--
		}
		p = s.trail[idx]
		idx--
		v := p.Var()
		confl = s.info[v].reason
		s.seen[v] = false
		pathC--
		if pathC == 0 {
			break
		}
	}
	learnt[0] = p.Not()
	// Clause minimization: remove literals implied by the rest.
	out := learnt[:1]
	for _, l := range learnt[1:] {
		if !s.redundant(l) {
			out = append(out, l)
		}
	}
	learnt = out
	// Clear every seen flag set above, including literals dropped by
	// minimization; stale flags would corrupt the next analysis.
	for _, v := range touched {
		s.seen[v] = false
	}
	s.analyzeBuf, s.touchedBuf = learnt, touched // keep grown buffers
	// Compute backtrack level: the max level among learnt[1:].
	btLevel := 0
	if len(learnt) > 1 {
		maxI := 1
		for i := 2; i < len(learnt); i++ {
			if s.info[learnt[i].Var()].level > s.info[learnt[maxI].Var()].level {
				maxI = i
			}
		}
		learnt[1], learnt[maxI] = learnt[maxI], learnt[1]
		btLevel = int(s.info[learnt[1].Var()].level)
	}
	return learnt, btLevel
}

// redundant reports whether literal l in a learned clause is implied by
// the remaining literals (simple local minimization: its reason's
// literals are all already seen).
func (s *Solver) redundant(l Lit) bool {
	r := s.info[l.Var()].reason
	if r == noReason {
		return false
	}
	for _, w := range s.lits(r) {
		q := Lit(w)
		if q.Var() == l.Var() {
			continue
		}
		if !s.seen[q.Var()] && s.info[q.Var()].level > 0 {
			return false
		}
	}
	return true
}

func (s *Solver) bumpVar(v Var) {
	s.activity[v] += s.varInc
	if s.activity[v] > 1e100 {
		for i := range s.activity {
			s.activity[i] *= 1e-100
		}
		s.varInc *= 1e-100
	}
	s.order.update(v)
}

func (s *Solver) bumpClause(c cref) {
	a := s.act(c) + s.claInc
	s.setAct(c, a)
	if a > 1e20 {
		for _, l := range s.learnts {
			s.setAct(l, s.act(l)*1e-20)
		}
		s.claInc *= 1e-20
	}
}

func (s *Solver) backtrackTo(level int) {
	if s.decisionLevel() <= level {
		return
	}
	bound := s.trailLim[level]
	for i := len(s.trail) - 1; i >= bound; i-- {
		v := s.trail[i].Var()
		s.assign[v] = lUndef
		s.info[v] = varInfo{reason: noReason}
		s.order.insert(v)
	}
	s.trail = s.trail[:bound]
	s.trailLim = s.trailLim[:level]
	s.qhead = len(s.trail)
}

func (s *Solver) pickBranchLit() Lit {
	for {
		v, ok := s.order.removeMax()
		if !ok {
			return -1
		}
		if s.assign[v] == lUndef {
			s.Decisions++
			// Negative-polarity default works well for bit-blasted
			// circuits (most signals are 0 in minimal models).
			return NewLit(v, true)
		}
	}
}

// luby returns the i-th element (1-based) of the Luby restart sequence
// 1,1,2,1,1,2,4,1,1,2,1,1,2,4,8,...
func luby(i int64) int64 {
	for {
		var k uint = 1
		for ; (1<<k)-1 < i; k++ {
		}
		if (1<<k)-1 == i {
			return 1 << (k - 1)
		}
		i = i - (1 << (k - 1)) + 1
	}
}

// reduceDB removes roughly half of the learned clauses, preferring low
// activity. Below the adaptive floor (LearntFloor, growing by
// LearntFloorGrowth after every reduction) it is a no-op, so a solver
// that keeps proving useful conflicts earns a larger retained set.
func (s *Solver) reduceDB() {
	if s.LearntFloor <= 0 {
		s.LearntFloor = learntFloorBase
	}
	if len(s.learnts) < s.LearntFloor {
		return
	}
	med := s.medianActivity()
	s.dropBelow(med)
	if s.LearntFloorGrowth > 1 {
		s.LearntFloor = int(float64(s.LearntFloor) * s.LearntFloorGrowth)
	}
}

// medianActivity returns the median learnt activity, using the
// solver's scratch buffer instead of allocating per call.
func (s *Solver) medianActivity() float64 {
	acts := s.medianBuf[:0]
	for _, c := range s.learnts {
		acts = append(acts, s.act(c))
	}
	s.medianBuf = acts[:0]
	return quickMedian(acts)
}

// dropBelow detaches unlocked, non-binary learned clauses with
// activity below med, keeping watch lists consistent.
func (s *Solver) dropBelow(med float64) {
	kept := s.learnts[:0]
	for _, c := range s.learnts {
		if len(s.lits(c)) == 2 || s.act(c) >= med || s.locked(c) {
			kept = append(kept, c)
			continue
		}
		s.detach(c)
		s.LearntsDropped++
	}
	s.learnts = kept
}

// TrimLearnts shrinks the learned-clause database toward target by
// dropping low-activity clauses, between searches rather than mid-
// search. It is the hook incremental sessions use to keep a
// long-lived solver's memory bounded across many Solve calls. Locked
// and binary clauses are always retained, so the result may exceed
// target. It must not be called mid-search.
func (s *Solver) TrimLearnts(target int) {
	if target < 0 || len(s.learnts) <= target {
		return
	}
	if len(s.trailLim) != 0 {
		panic("sat: TrimLearnts called during search")
	}
	// One median pass halves the set; repeat until at or under target,
	// bailing out when a pass stops making progress (everything left is
	// binary, locked, or activity-tied).
	for len(s.learnts) > target {
		before := len(s.learnts)
		s.dropBelow(s.medianActivity())
		if len(s.learnts) >= before {
			break
		}
	}
}

func (s *Solver) locked(c cref) bool {
	first := Lit(s.lits(c)[0])
	return s.value(first) == lTrue && s.info[first.Var()].reason == c
}

// quickMedian selects the median in place by partial quickselect,
// reordering xs.
func quickMedian(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	cp := xs
	k := len(cp) / 2
	lo, hi := 0, len(cp)-1
	for lo < hi {
		p := cp[(lo+hi)/2]
		i, j := lo, hi
		for i <= j {
			for cp[i] < p {
				i++
			}
			for cp[j] > p {
				j--
			}
			if i <= j {
				cp[i], cp[j] = cp[j], cp[i]
				i++
				j--
			}
		}
		if k <= j {
			hi = j
		} else if k >= i {
			lo = i
		} else {
			break
		}
	}
	return cp[k]
}

// Solve determines satisfiability of the clause database under the
// given assumptions. It is SolveAssuming under its historical name;
// both entry points share the incremental contract documented there.
func (s *Solver) Solve(assumptions ...Lit) Status {
	return s.SolveAssuming(assumptions...)
}

// SolveAssuming determines satisfiability of the clause database under
// the given assumptions, the incremental-SAT interface in the style of
// MiniSat's solve(assumps): assumptions are decided (not asserted)
// before the search, so nothing about a query outlives the call except
// what may be reused — the clause database, the learned clauses, and
// the variable activities all carry over to the next call. Callers
// implement retractable constraints with activation literals: add
// clause (¬a ∨ C) once, then pass a to activate it per query.
//
// On Sat, a model is available via ModelValue. On Unsat under
// assumptions, FailedAssumptions returns a subset of the assumptions
// sufficient for unsatisfiability (the final conflict clause expressed
// over the assumptions).
func (s *Solver) SolveAssuming(assumptions ...Lit) Status {
	s.Solves++
	if !s.ok {
		s.conflCore = nil
		return Unsat
	}
	if s.interrupted() {
		// Already cancelled: give up before touching the trail, so a
		// caller draining a cancelled request pays one cheap check per
		// query instead of a search restart.
		s.conflCore = nil
		return Unknown
	}
	defer func() {
		s.backtrackTo(0)
		s.numAssumed = 0
	}()
	s.conflCore = nil
	s.numAssumed = 0
	var restarts int64
	conflictsAtStart := s.Conflicts
	checkEvery := int64(256)
	for {
		restarts++
		budget := 32 * luby(restarts)
		res := s.search(assumptions, budget, conflictsAtStart, checkEvery)
		if res != Unknown {
			return res
		}
		if !s.ok {
			return Unsat
		}
		if s.exhausted(conflictsAtStart) {
			return Unknown
		}
		s.backtrackTo(0)
		s.numAssumed = 0
	}
}

func (s *Solver) exhausted(conflictsAtStart int64) bool {
	if s.MaxConflicts > 0 && s.Conflicts-conflictsAtStart >= s.MaxConflicts {
		return true
	}
	return s.interrupted()
}

// interrupted reports whether the solve context has been cancelled or
// has passed its deadline.
func (s *Solver) interrupted() bool {
	return s.Ctx != nil && s.Ctx.Err() != nil
}

// search runs CDCL until a verdict, a conflict budget is exhausted
// (returns Unknown for restart), or the global budget/deadline is hit.
func (s *Solver) search(assumptions []Lit, budget, conflictsAtStart, checkEvery int64) Status {
	var conflicts int64
	for {
		confl := s.propagate()
		if confl != noReason {
			s.Conflicts++
			conflicts++
			if s.decisionLevel() == 0 {
				s.ok = false
				return Unsat
			}
			// If all decisions so far are assumptions, the
			// assumptions are jointly inconsistent.
			if s.decisionLevel() <= s.numAssumed {
				s.analyzeFinal(confl, assumptions)
				return Unsat
			}
			learnt, bt := s.analyze(confl)
			if bt < s.numAssumed {
				bt = s.numAssumed
				// Re-deciding the assumptions will re-derive the
				// conflict if it is at assumption level.
			}
			s.backtrackTo(bt)
			if len(learnt) == 1 {
				s.backtrackTo(0)
				s.numAssumed = 0
				if s.value(learnt[0]) == lFalse {
					s.ok = false
					return Unsat
				}
				if s.value(learnt[0]) == lUndef {
					s.uncheckedEnqueue(learnt[0], noReason)
				}
			} else {
				c := s.newClause(learnt, true)
				s.learnts = append(s.learnts, c)
				s.attach(c)
				s.bumpClause(c)
				if s.value(learnt[0]) == lUndef {
					s.uncheckedEnqueue(learnt[0], c)
				}
			}
			s.varInc /= 0.95
			s.claInc /= 0.999
			if conflicts%checkEvery == 0 && s.exhausted(conflictsAtStart) {
				return Unknown
			}
			if conflicts >= budget {
				return Unknown // restart
			}
			continue
		}
		if int64(len(s.learnts)) > int64(len(s.clauses))/2+8192 {
			s.reduceDB()
		}
		// Select next decision: pending assumptions first.
		if s.decisionLevel() < len(assumptions) {
			a := assumptions[s.decisionLevel()]
			switch s.value(a) {
			case lTrue:
				s.newDecisionLevel() // trivially satisfied; dummy level
				s.numAssumed = s.decisionLevel()
				continue
			case lFalse:
				s.finalFromAssumption(a, assumptions)
				return Unsat
			}
			s.newDecisionLevel()
			s.numAssumed = s.decisionLevel()
			s.uncheckedEnqueue(a, noReason)
			continue
		}
		next := s.pickBranchLit()
		if next == -1 {
			// All variables assigned: model found.
			s.model = append(s.model[:0], s.assign...)
			return Sat
		}
		s.newDecisionLevel()
		s.uncheckedEnqueue(next, noReason)
	}
}

// analyzeFinal computes the subset of assumptions responsible for a
// conflict while all decisions are assumptions.
func (s *Solver) analyzeFinal(confl cref, assumptions []Lit) {
	isAssumption := make(map[Lit]bool, len(assumptions))
	for _, a := range assumptions {
		isAssumption[a] = true
	}
	core := map[Lit]bool{}
	var mark func(c cref)
	seen := make([]bool, s.nVars)
	var stack []Var
	push := func(l Lit) {
		v := l.Var()
		if !seen[v] && s.info[v].level > 0 {
			seen[v] = true
			stack = append(stack, v)
		}
	}
	mark = func(c cref) {
		for _, q := range s.lits(c) {
			push(Lit(q))
		}
	}
	mark(confl)
	for len(stack) > 0 {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		r := s.info[v].reason
		if r == noReason {
			// Decision (assumption) variable.
			for _, a := range assumptions {
				if a.Var() == v {
					core[a] = true
				}
			}
			continue
		}
		mark(r)
	}
	s.conflCore = s.conflCore[:0]
	for _, a := range assumptions {
		if core[a] {
			s.conflCore = append(s.conflCore, a)
		}
	}
}

// finalFromAssumption handles the case where an assumption is already
// false when it is about to be decided.
func (s *Solver) finalFromAssumption(a Lit, assumptions []Lit) {
	// The negation of a was derived; walk its implication graph.
	s.conflCore = s.conflCore[:0]
	v := a.Var()
	if s.info[v].reason == noReason {
		// a conflicts with an earlier assumption directly.
		s.conflCore = append(s.conflCore, a)
		for _, b := range assumptions {
			if b == a.Not() {
				s.conflCore = append(s.conflCore, b)
			}
		}
		return
	}
	seen := make([]bool, s.nVars)
	stack := []Var{v}
	seen[v] = true
	core := map[Lit]bool{a: true}
	for len(stack) > 0 {
		u := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		r := s.info[u].reason
		if r == noReason {
			for _, b := range assumptions {
				if b.Var() == u {
					core[b] = true
				}
			}
			continue
		}
		for _, q := range s.lits(r) {
			w := Lit(q).Var()
			if !seen[w] && s.info[w].level > 0 {
				seen[w] = true
				stack = append(stack, w)
			}
		}
	}
	for _, b := range assumptions {
		if core[b] {
			s.conflCore = append(s.conflCore, b)
		}
	}
}

// ModelValue returns the value of v in the most recent satisfying
// assignment. It must only be called after Solve returned Sat.
// Variables allocated after that assignment was found are not
// constrained by it and report false (an arbitrary don't-care
// completion).
func (s *Solver) ModelValue(v Var) bool {
	return int(v) < len(s.model) && s.model[v] == lTrue
}

// FailedAssumptions returns, after Solve returned Unsat under
// assumptions, a subset of the assumptions that is sufficient for
// unsatisfiability. The slice is valid until the next Solve call.
func (s *Solver) FailedAssumptions() []Lit { return s.conflCore }
