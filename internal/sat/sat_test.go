package sat

import (
	"context"
	"math/rand"
	"testing"
	"testing/quick"
	"time"
)

func lits(s *Solver, n int) []Lit {
	out := make([]Lit, n)
	for i := range out {
		out[i] = NewLit(s.NewVar(), false)
	}
	return out
}

func TestLitEncoding(t *testing.T) {
	l := NewLit(7, true)
	if l.Var() != 7 || !l.Neg() {
		t.Fatalf("encoding broken: %v %v", l.Var(), l.Neg())
	}
	if l.Not().Neg() || l.Not().Var() != 7 {
		t.Fatalf("negation broken")
	}
	if l.Not().Not() != l {
		t.Fatalf("double negation broken")
	}
}

func TestEmptySolverIsSat(t *testing.T) {
	s := New()
	if got := s.Solve(); got != Sat {
		t.Fatalf("empty solver: got %v, want sat", got)
	}
}

func TestUnitPropagation(t *testing.T) {
	s := New()
	a, b := s.NewVar(), s.NewVar()
	s.AddClause(NewLit(a, false))
	s.AddClause(NewLit(a, true), NewLit(b, false))
	if got := s.Solve(); got != Sat {
		t.Fatalf("got %v", got)
	}
	if !s.ModelValue(a) || !s.ModelValue(b) {
		t.Fatalf("model: a=%v b=%v, want both true", s.ModelValue(a), s.ModelValue(b))
	}
}

func TestTrivialUnsat(t *testing.T) {
	s := New()
	a := s.NewVar()
	s.AddClause(NewLit(a, false))
	if s.AddClause(NewLit(a, true)) {
		t.Fatalf("adding contradictory unit should report false")
	}
	if got := s.Solve(); got != Unsat {
		t.Fatalf("got %v, want unsat", got)
	}
}

func TestEmptyClauseUnsat(t *testing.T) {
	s := New()
	if s.AddClause() {
		t.Fatalf("empty clause should make db unsat")
	}
	if got := s.Solve(); got != Unsat {
		t.Fatalf("got %v", got)
	}
}

func TestTautologyIgnored(t *testing.T) {
	s := New()
	a := s.NewVar()
	if !s.AddClause(NewLit(a, false), NewLit(a, true)) {
		t.Fatalf("tautology should be accepted")
	}
	if s.NumClauses() != 0 {
		t.Fatalf("tautology should not be stored")
	}
}

func TestDuplicateLiteralsCollapsed(t *testing.T) {
	s := New()
	a, b := s.NewVar(), s.NewVar()
	s.AddClause(NewLit(a, false), NewLit(a, false), NewLit(b, false))
	if got := s.Solve(NewLit(a, true), NewLit(b, true)); got != Unsat {
		t.Fatalf("got %v, want unsat under assumptions", got)
	}
	if got := s.Solve(); got != Sat {
		t.Fatalf("got %v, want sat without assumptions", got)
	}
}

// TestPigeonhole checks an inherently hard-for-resolution but small
// unsat family: n+1 pigeons in n holes.
func TestPigeonhole(t *testing.T) {
	for n := 2; n <= 6; n++ {
		s := pigeonhole(n)
		if got := s.Solve(); got != Unsat {
			t.Fatalf("PHP(%d): got %v, want unsat", n, got)
		}
	}
}

func TestGraphColoringSat(t *testing.T) {
	// 3-color C5 (odd cycle): satisfiable with 3 colors.
	s := New()
	const n, k = 5, 3
	v := make([][]Var, n)
	for i := range v {
		v[i] = make([]Var, k)
		for c := range v[i] {
			v[i][c] = s.NewVar()
		}
		cl := make([]Lit, k)
		for c := 0; c < k; c++ {
			cl[c] = NewLit(v[i][c], false)
		}
		s.AddClause(cl...)
	}
	for i := 0; i < n; i++ {
		j := (i + 1) % n
		for c := 0; c < k; c++ {
			s.AddClause(NewLit(v[i][c], true), NewLit(v[j][c], true))
		}
	}
	if got := s.Solve(); got != Sat {
		t.Fatalf("C5 3-coloring: got %v", got)
	}
	for i := 0; i < n; i++ {
		j := (i + 1) % n
		for c := 0; c < k; c++ {
			if s.ModelValue(v[i][c]) && s.ModelValue(v[j][c]) {
				t.Fatalf("adjacent vertices %d,%d share color %d", i, j, c)
			}
		}
	}
}

func Test2ColoringOddCycleUnsat(t *testing.T) {
	s := New()
	const n = 7
	v := make([]Var, n)
	for i := range v {
		v[i] = s.NewVar()
	}
	// Edge (i, i+1): colors differ -> xor constraint as two clauses.
	for i := 0; i < n; i++ {
		j := (i + 1) % n
		s.AddClause(NewLit(v[i], false), NewLit(v[j], false))
		s.AddClause(NewLit(v[i], true), NewLit(v[j], true))
	}
	if got := s.Solve(); got != Unsat {
		t.Fatalf("odd cycle 2-coloring: got %v, want unsat", got)
	}
}

func TestAssumptions(t *testing.T) {
	s := New()
	a, b, c := s.NewVar(), s.NewVar(), s.NewVar()
	// a -> b, b -> c
	s.AddClause(NewLit(a, true), NewLit(b, false))
	s.AddClause(NewLit(b, true), NewLit(c, false))
	if got := s.Solve(NewLit(a, false), NewLit(c, true)); got != Unsat {
		t.Fatalf("a ∧ ¬c should be unsat, got %v", got)
	}
	fa := s.FailedAssumptions()
	if len(fa) == 0 {
		t.Fatalf("want nonempty failed-assumption set")
	}
	// Solver must remain usable and the db untouched by assumptions.
	if got := s.Solve(NewLit(a, false)); got != Sat {
		t.Fatalf("a alone should be sat, got %v", got)
	}
	if !s.ModelValue(b) || !s.ModelValue(c) {
		t.Fatalf("implication chain not propagated in model")
	}
}

func TestFailedAssumptionsSubset(t *testing.T) {
	s := New()
	a, b, c, d := s.NewVar(), s.NewVar(), s.NewVar(), s.NewVar()
	// a ∧ b is contradictory via clauses; c, d irrelevant.
	s.AddClause(NewLit(a, true), NewLit(b, true))
	as := []Lit{NewLit(c, false), NewLit(a, false), NewLit(d, false), NewLit(b, false)}
	if got := s.Solve(as...); got != Unsat {
		t.Fatalf("got %v, want unsat", got)
	}
	fa := s.FailedAssumptions()
	for _, l := range fa {
		if l.Var() == c || l.Var() == d {
			t.Fatalf("failed assumptions include irrelevant literal %v", l)
		}
	}
	if len(fa) == 0 || len(fa) > 2 {
		t.Fatalf("failed assumptions should be {a,b}-subset, got %d lits", len(fa))
	}
}

func TestContradictoryAssumptions(t *testing.T) {
	s := New()
	a := s.NewVar()
	s.AddClause(NewLit(a, false), NewLit(a, true)) // tautology; db stays empty
	if got := s.Solve(NewLit(a, false), NewLit(a, true)); got != Unsat {
		t.Fatalf("directly contradictory assumptions: got %v", got)
	}
}

func TestSolveReusable(t *testing.T) {
	s := New()
	a, b := s.NewVar(), s.NewVar()
	s.AddClause(NewLit(a, false), NewLit(b, false))
	for i := 0; i < 10; i++ {
		if got := s.Solve(NewLit(a, true)); got != Sat {
			t.Fatalf("iter %d: got %v", i, got)
		}
		if !s.ModelValue(b) {
			t.Fatalf("iter %d: ¬a forces b", i)
		}
		if got := s.Solve(NewLit(a, true), NewLit(b, true)); got != Unsat {
			t.Fatalf("iter %d: got %v, want unsat", i, got)
		}
	}
}

func TestMaxConflictsBudget(t *testing.T) {
	s := New()
	s.MaxConflicts = 1
	// PHP(7) needs far more than one conflict.
	n := 7
	p := make([][]Var, n+1)
	for i := range p {
		p[i] = make([]Var, n)
		for j := range p[i] {
			p[i][j] = s.NewVar()
		}
	}
	for i := 0; i <= n; i++ {
		cl := make([]Lit, n)
		for j := 0; j < n; j++ {
			cl[j] = NewLit(p[i][j], false)
		}
		s.AddClause(cl...)
	}
	for j := 0; j < n; j++ {
		for i := 0; i <= n; i++ {
			for k := i + 1; k <= n; k++ {
				s.AddClause(NewLit(p[i][j], true), NewLit(p[k][j], true))
			}
		}
	}
	if got := s.Solve(); got != Unknown {
		t.Fatalf("with MaxConflicts=1 got %v, want unknown", got)
	}
	s.MaxConflicts = 0
	if got := s.Solve(); got != Unsat {
		t.Fatalf("without budget got %v, want unsat", got)
	}
}

func TestContextCancellation(t *testing.T) {
	s := New()
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // already cancelled
	s.Ctx = ctx
	n := 8
	p := make([][]Var, n+1)
	for i := range p {
		p[i] = make([]Var, n)
		for j := range p[i] {
			p[i][j] = s.NewVar()
		}
	}
	for i := 0; i <= n; i++ {
		cl := make([]Lit, n)
		for j := 0; j < n; j++ {
			cl[j] = NewLit(p[i][j], false)
		}
		s.AddClause(cl...)
	}
	for j := 0; j < n; j++ {
		for i := 0; i <= n; i++ {
			for k := i + 1; k <= n; k++ {
				s.AddClause(NewLit(p[i][j], true), NewLit(p[k][j], true))
			}
		}
	}
	if got := s.Solve(); got != Unknown {
		t.Fatalf("cancelled context: got %v, want unknown", got)
	}
	// An expired deadline behaves the same way — Unknown, promptly.
	dctx, dcancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer dcancel()
	s.Ctx = dctx
	if got := s.Solve(); got != Unknown {
		t.Fatalf("expired deadline: got %v, want unknown", got)
	}
	// With the interrupt lifted, the same instance gets a verdict.
	s.Ctx = nil
	if got := s.Solve(); got != Unsat {
		t.Fatalf("pigeonhole without interrupt: got %v, want unsat", got)
	}
}

// TestCancellationMidSearch cancels a context while the solver is deep
// in a hard search and asserts the call returns promptly with Unknown —
// the bound the streaming sweep's cancellation guarantee rests on.
func TestCancellationMidSearch(t *testing.T) {
	s := New()
	// A hard unsat instance: pigeonhole with 10 pigeons, too hard to
	// finish in the test's grace window, so the verdict can only come
	// from the interrupt.
	n := 10
	p := make([][]Var, n+1)
	for i := range p {
		p[i] = make([]Var, n)
		for j := range p[i] {
			p[i][j] = s.NewVar()
		}
	}
	for i := 0; i <= n; i++ {
		cl := make([]Lit, n)
		for j := 0; j < n; j++ {
			cl[j] = NewLit(p[i][j], false)
		}
		s.AddClause(cl...)
	}
	for j := 0; j < n; j++ {
		for i := 0; i <= n; i++ {
			for k := i + 1; k <= n; k++ {
				s.AddClause(NewLit(p[i][j], true), NewLit(p[k][j], true))
			}
		}
	}
	ctx, cancel := context.WithCancel(context.Background())
	s.Ctx = ctx
	go func() {
		time.Sleep(50 * time.Millisecond)
		cancel()
	}()
	done := make(chan Status, 1)
	go func() { done <- s.Solve() }()
	select {
	case got := <-done:
		if got != Unknown {
			// The instance finishing before the cancel would be a
			// surprise, but not an interrupt bug.
			t.Logf("solver finished before cancellation with %v", got)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("cancelled solve did not return within 10s")
	}
}

// naiveSat decides satisfiability of a CNF by exhaustive enumeration.
func naiveSat(nVars int, cnf [][]Lit) bool {
	for m := 0; m < 1<<nVars; m++ {
		ok := true
		for _, cl := range cnf {
			cOK := false
			for _, l := range cl {
				bit := m>>uint(l.Var())&1 == 1
				if bit != l.Neg() {
					cOK = true
					break
				}
			}
			if !cOK {
				ok = false
				break
			}
		}
		if ok {
			return true
		}
	}
	return false
}

// TestRandom3SATAgainstNaive cross-checks the CDCL verdict against
// brute force on random small formulas (a differential property test).
func TestRandom3SATAgainstNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for iter := 0; iter < 300; iter++ {
		nVars := 3 + rng.Intn(8) // 3..10
		nCls := 1 + rng.Intn(40)
		cnf := make([][]Lit, nCls)
		s := New()
		vs := make([]Var, nVars)
		for i := range vs {
			vs[i] = s.NewVar()
		}
		for i := range cnf {
			k := 1 + rng.Intn(3)
			cl := make([]Lit, k)
			for j := range cl {
				cl[j] = NewLit(vs[rng.Intn(nVars)], rng.Intn(2) == 1)
			}
			cnf[i] = cl
			s.AddClause(cl...)
		}
		want := naiveSat(nVars, cnf)
		got := s.Solve()
		if (got == Sat) != want {
			t.Fatalf("iter %d: naive=%v cdcl=%v cnf=%v", iter, want, got, cnf)
		}
		if got == Sat {
			// Verify the model actually satisfies the formula.
			for _, cl := range cnf {
				ok := false
				for _, l := range cl {
					if s.ModelValue(l.Var()) != l.Neg() {
						ok = true
						break
					}
				}
				if !ok {
					t.Fatalf("iter %d: model does not satisfy %v", iter, cl)
				}
			}
		}
	}
}

// TestAssumptionEquivalentToUnit property: Solve(assumption a) must
// agree with adding a as a unit clause to a copy.
func TestAssumptionEquivalentToUnit(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for iter := 0; iter < 200; iter++ {
		nVars := 3 + rng.Intn(6)
		nCls := 1 + rng.Intn(25)
		type rawClause []Lit
		cls := make([]rawClause, nCls)
		for i := range cls {
			k := 1 + rng.Intn(3)
			cl := make(rawClause, k)
			for j := range cl {
				cl[j] = NewLit(Var(rng.Intn(nVars)), rng.Intn(2) == 1)
			}
			cls[i] = cl
		}
		assume := NewLit(Var(rng.Intn(nVars)), rng.Intn(2) == 1)

		s1 := New()
		s2 := New()
		for i := 0; i < nVars; i++ {
			s1.NewVar()
			s2.NewVar()
		}
		ok2 := true
		for _, cl := range cls {
			s1.AddClause(cl...)
			if !s2.AddClause(cl...) {
				ok2 = false
			}
		}
		var got2 Status
		if ok2 && s2.AddClause(assume) {
			got2 = s2.Solve()
		} else {
			got2 = Unsat
		}
		got1 := s1.Solve(assume)
		if got1 != got2 {
			t.Fatalf("iter %d: assumption=%v unit=%v (assume %v, cls %v)", iter, got1, got2, assume, cls)
		}
	}
}

func TestLubySequence(t *testing.T) {
	want := []int64{1, 1, 2, 1, 1, 2, 4, 1, 1, 2, 1, 1, 2, 4, 8}
	for i, w := range want {
		if got := luby(int64(i + 1)); got != w {
			t.Fatalf("luby(%d) = %d, want %d", i+1, got, w)
		}
	}
}

func TestQuickMedian(t *testing.T) {
	if m := quickMedian([]float64{3, 1, 2}); m != 2 {
		t.Fatalf("median of {3,1,2} = %v", m)
	}
	if m := quickMedian(nil); m != 0 {
		t.Fatalf("median of empty = %v", m)
	}
	if m := quickMedian([]float64{5}); m != 5 {
		t.Fatalf("median of {5} = %v", m)
	}
}

// Property: the heap always pops variables in nonincreasing activity
// order when activities are fixed.
func TestHeapOrderProperty(t *testing.T) {
	f := func(raw []uint8) bool {
		if len(raw) == 0 || len(raw) > 50 {
			return true
		}
		act := make([]float64, len(raw))
		h := newVarHeap(&act)
		for i, a := range raw {
			act[i] = float64(a)
			h.insert(Var(i))
		}
		prev := 1e18
		for {
			v, ok := h.removeMax()
			if !ok {
				break
			}
			if act[v] > prev {
				return false
			}
			prev = act[v]
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestHeapReinsertIdempotent(t *testing.T) {
	act := []float64{1, 2, 3}
	h := newVarHeap(&act)
	h.insert(0)
	h.insert(0)
	h.insert(1)
	h.insert(2)
	if len(h.heap) != 3 {
		t.Fatalf("duplicate insert grew heap: %d", len(h.heap))
	}
	if v, _ := h.removeMax(); v != 2 {
		t.Fatalf("max = %v, want 2", v)
	}
}

// TestSolveAssumingActivationLiterals exercises the retractable-clause
// idiom SolveAssuming exists for: constraint groups are guarded by
// activation literals and toggled per query, with the clause database
// built exactly once.
func TestSolveAssumingActivationLiterals(t *testing.T) {
	s := New()
	x, y := s.NewVar(), s.NewVar()
	actA, actB := s.NewVar(), s.NewVar()
	// Group A: x ∧ y. Group B: ¬x.
	s.AddClause(NewLit(actA, true), NewLit(x, false))
	s.AddClause(NewLit(actA, true), NewLit(y, false))
	s.AddClause(NewLit(actB, true), NewLit(x, true))
	clauses := s.NumClauses()

	if got := s.SolveAssuming(NewLit(actA, false)); got != Sat {
		t.Fatalf("group A alone: %v, want sat", got)
	}
	if !s.ModelValue(x) || !s.ModelValue(y) {
		t.Fatalf("group A model: x=%v y=%v", s.ModelValue(x), s.ModelValue(y))
	}
	if got := s.SolveAssuming(NewLit(actB, false)); got != Sat {
		t.Fatalf("group B alone: %v, want sat", got)
	}
	if s.ModelValue(x) {
		t.Fatal("group B model should force ¬x")
	}
	if got := s.SolveAssuming(NewLit(actA, false), NewLit(actB, false)); got != Unsat {
		t.Fatalf("both groups: %v, want unsat", got)
	}
	fa := s.FailedAssumptions()
	if len(fa) != 2 {
		t.Fatalf("failed assumptions = %v, want both activation literals", fa)
	}
	// Retraction is free: the next query simply drops an assumption.
	if got := s.SolveAssuming(NewLit(actA, false)); got != Sat {
		t.Fatalf("after retracting B: %v, want sat", got)
	}
	if s.NumClauses() != clauses {
		t.Fatalf("clause database changed across queries: %d -> %d", clauses, s.NumClauses())
	}
	if s.Solves != 4 {
		t.Fatalf("Solves = %d, want 4", s.Solves)
	}
}

// TestSolveAssumingRetainsLearnts: conflicts hit under one set of
// assumptions must leave learned clauses behind for later queries —
// the reuse the incremental bv session is built on.
func TestSolveAssumingRetainsLearnts(t *testing.T) {
	s := New()
	act := s.NewVar()
	x, y := s.NewVar(), s.NewVar()
	// Under act: all four clauses over {x, y}, i.e. a contradiction that
	// needs at least one decision and conflict analysis to refute.
	for _, cl := range [][]Lit{
		{NewLit(x, false), NewLit(y, false)},
		{NewLit(x, false), NewLit(y, true)},
		{NewLit(x, true), NewLit(y, false)},
		{NewLit(x, true), NewLit(y, true)},
	} {
		s.AddClause(append([]Lit{NewLit(act, true)}, cl...)...)
	}
	if got := s.SolveAssuming(NewLit(act, false)); got != Unsat {
		t.Fatalf("activated contradiction: %v, want unsat", got)
	}
	if fa := s.FailedAssumptions(); len(fa) != 1 || fa[0] != NewLit(act, false) {
		t.Fatalf("failed assumptions = %v, want [act]", fa)
	}
	learnts := s.NumLearnts()
	if learnts == 0 {
		t.Fatal("refutation produced no learned clauses")
	}
	// The learned clauses survive into the next query and the solver
	// remains complete on the relaxed problem.
	if got := s.SolveAssuming(); got != Sat {
		t.Fatalf("deactivated: %v, want sat", got)
	}
	if s.ModelValue(act) {
		t.Fatal("model should deactivate the contradictory group")
	}
	if s.NumLearnts() < learnts {
		t.Fatalf("learned clauses dropped across queries: %d -> %d", learnts, s.NumLearnts())
	}
}

func BenchmarkSolvePigeonhole6(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := pigeonhole(6)
		if s.Solve() != Unsat {
			b.Fatal("wrong verdict")
		}
	}
}

func BenchmarkSolveRandom3SAT(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s := New()
		nVars := 60
		vs := make([]Var, nVars)
		for j := range vs {
			vs[j] = s.NewVar()
		}
		for c := 0; c < 250; c++ {
			s.AddClause(
				NewLit(vs[rng.Intn(nVars)], rng.Intn(2) == 1),
				NewLit(vs[rng.Intn(nVars)], rng.Intn(2) == 1),
				NewLit(vs[rng.Intn(nVars)], rng.Intn(2) == 1),
			)
		}
		s.Solve()
	}
}
