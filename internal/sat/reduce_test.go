package sat

import (
	"math/rand"
	"testing"
)

// mkLearnt fabricates a learned clause over the given literals with
// the given activity, attached and registered like one produced by
// conflict analysis.
func mkLearnt(s *Solver, act float64, ls ...Lit) cref {
	c := s.newClause(ls, true)
	s.setAct(c, act)
	s.learnts = append(s.learnts, c)
	s.attach(c)
	return c
}

// litsOf returns the literals of c as Lits, for messages and checks.
func litsOf(s *Solver, c cref) []Lit {
	var out []Lit
	for _, w := range s.lits(c) {
		out = append(out, Lit(w))
	}
	return out
}

// arenaConsistent verifies the clause arena and the two-literal
// watching invariants:
//   - the arena parses as a sequence of clause headers, each followed by
//     its activity words (learnt clauses only) and at least two literals;
//   - every cref in clauses, learnts, the watch lists and the var
//     reasons points to a live clause header, with the learned bit
//     matching the list it is in;
//   - every live clause is watched exactly once on each of its first two
//     literals, with a blocker taken from the clause, and no watcher
//     references a detached clause;
//   - a var's reason is noReason or a live clause whose first literal is
//     the var's current assignment.
func arenaConsistent(t *testing.T, s *Solver) {
	t.Helper()
	header := map[cref]bool{}
	for off := 0; off < len(s.arena); {
		h := s.arena[off]
		if h>>1 < 2 {
			t.Fatalf("clause at %d has %d literals, want at least 2", off, h>>1)
		}
		header[cref(off)] = true
		off += 1 + int(h&1)*2 + int(h>>1)
		if off > len(s.arena) {
			t.Fatalf("last clause runs past the arena end %d", len(s.arena))
		}
	}
	live := map[cref]bool{}
	register := func(list string, cs []cref, learned bool) {
		for _, c := range cs {
			if !header[c] {
				t.Fatalf("%s holds cref %d, which is not a clause header", list, c)
			}
			if live[c] {
				t.Fatalf("%s holds cref %d twice", list, c)
			}
			if s.learned(c) != learned {
				t.Fatalf("%s holds clause %v with learned=%v", list, litsOf(s, c), s.learned(c))
			}
			live[c] = true
		}
	}
	register("clauses", s.clauses, false)
	register("learnts", s.learnts, true)
	type watch struct {
		c cref
		l Lit
	}
	counts := map[watch]int{}
	for l := range s.watches {
		for _, w := range s.watches[l] {
			if !live[w.c] {
				t.Fatalf("watch list for lit %d references cref %d, which is not a live clause", l, w.c)
			}
			lits := litsOf(s, w.c)
			if lits[0].Not() != Lit(l) && lits[1].Not() != Lit(l) {
				t.Fatalf("clause %v watched on %d, which is neither of its first two literals", lits, l)
			}
			hasBlocker := false
			for _, q := range lits {
				hasBlocker = hasBlocker || q == Lit(w.blocker)
			}
			if !hasBlocker {
				t.Fatalf("clause %v watched with blocker %d, which is not one of its literals", lits, w.blocker)
			}
			counts[watch{w.c, Lit(l).Not()}]++
		}
	}
	for c := range live {
		lits := litsOf(s, c)
		for _, l := range lits[:2] {
			if n := counts[watch{c, l}]; n != 1 {
				t.Fatalf("clause %v has %d watchers on %d, want 1", lits, n, l)
			}
		}
	}
	for v, in := range s.info {
		if in.reason == noReason {
			continue
		}
		if !live[in.reason] {
			t.Fatalf("var %d has reason cref %d, which is not a live clause", v, in.reason)
		}
		first := Lit(s.lits(in.reason)[0])
		if first.Var() != Var(v) || s.value(first) != lTrue {
			t.Fatalf("var %d has reason %v, whose first literal is not its true assignment", v, litsOf(s, in.reason))
		}
	}
}

// TestReduceDBRetention: reduceDB keeps binary and locked learnt
// clauses regardless of activity, drops cold ones, and leaves the
// watch lists consistent.
func TestReduceDBRetention(t *testing.T) {
	s := New()
	v := lits(s, 12)

	binary := mkLearnt(s, 0, v[0], v[1])       // coldest possible, but binary
	locked := mkLearnt(s, 0, v[2], v[3], v[4]) // will be a reason clause
	cold := mkLearnt(s, 1, v[5], v[6], v[7])   // below median: dropped
	cold2 := mkLearnt(s, 2, v[5], v[8], v[11]) // below median: dropped
	// Five hot clauses pin the median at 50, clearly above the colds
	// (the drop rule is act < median; median-tied clauses survive).
	hots := make([]cref, 5)
	for i := range hots {
		hots[i] = mkLearnt(s, 50, v[i], v[i+4].Not(), v[i+7])
	}

	// Make `locked` the reason for its first literal, as if propagation
	// had just enqueued it.
	s.uncheckedEnqueue(Lit(s.lits(locked)[0]), locked)
	if !s.locked(locked) {
		t.Fatal("test setup: clause not locked")
	}

	s.LearntFloor = 1 // force reduction on a tiny database
	s.reduceDB()

	kept := map[cref]bool{}
	for _, c := range s.learnts {
		kept[c] = true
	}
	if !kept[binary] {
		t.Errorf("binary learnt dropped; binaries must survive reduction")
	}
	if !kept[locked] {
		t.Errorf("locked learnt dropped; reason clauses must survive reduction")
	}
	for i, h := range hots {
		if !kept[h] {
			t.Errorf("above-median learnt %d dropped", i)
		}
	}
	if kept[cold] || kept[cold2] {
		t.Errorf("cold learnts survived: cold=%v cold2=%v", kept[cold], kept[cold2])
	}
	if s.LearntsDropped != 2 {
		t.Errorf("LearntsDropped = %d, want 2", s.LearntsDropped)
	}
	arenaConsistent(t, s)
}

// TestReduceDBFloor: below the floor reduceDB is a no-op; with
// geometric growth configured, each reduction raises the floor.
func TestReduceDBFloor(t *testing.T) {
	s := New()
	v := lits(s, 20)
	for i := 0; i+2 < len(v); i++ {
		mkLearnt(s, float64(i), v[i], v[i+1], v[i+2])
	}
	n := len(s.learnts)

	s.LearntFloor = n + 1
	s.reduceDB()
	if len(s.learnts) != n {
		t.Fatalf("reduceDB below floor dropped clauses: %d -> %d", n, len(s.learnts))
	}

	s.LearntFloor = 4
	s.LearntFloorGrowth = 2
	s.reduceDB()
	if len(s.learnts) >= n {
		t.Fatalf("reduceDB above floor dropped nothing")
	}
	if s.LearntFloor != 8 {
		t.Fatalf("floor after reduction = %d, want 8 (geometric growth)", s.LearntFloor)
	}
	arenaConsistent(t, s)
}

// TestTrimLearnts: trimming between solves shrinks the database toward
// the target while retaining binary clauses, and counts the drops.
func TestTrimLearnts(t *testing.T) {
	s := New()
	v := lits(s, 30)
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 64; i++ {
		a, b, c := rng.Intn(len(v)), rng.Intn(len(v)), rng.Intn(len(v))
		if a == b || b == c || a == c {
			continue
		}
		mkLearnt(s, rng.Float64(), v[a], v[b].Not(), v[c])
	}
	mkLearnt(s, 0, v[0], v[1]) // binary, must survive any trim
	before := len(s.learnts)

	s.TrimLearnts(before) // already within budget: no-op
	if len(s.learnts) != before {
		t.Fatalf("TrimLearnts at budget dropped clauses")
	}

	s.TrimLearnts(8)
	if len(s.learnts) > before/2 {
		t.Fatalf("TrimLearnts(8) left %d of %d clauses", len(s.learnts), before)
	}
	hasBinary := false
	for _, c := range s.learnts {
		if len(s.lits(c)) == 2 {
			hasBinary = true
		}
	}
	if !hasBinary {
		t.Errorf("binary learnt did not survive trimming")
	}
	if got := int(s.LearntsDropped) + len(s.learnts); got != before {
		t.Errorf("dropped(%d) + kept(%d) != initial(%d)", s.LearntsDropped, len(s.learnts), before)
	}
	arenaConsistent(t, s)
}

// TestSolveCorrectAfterReduction: verdicts after forced database
// reductions and trims match a fresh reference solver on the same
// formula — reduction must be invisible to correctness.
func TestSolveCorrectAfterReduction(t *testing.T) {
	const nVars, nClauses = 30, 120
	rng := rand.New(rand.NewSource(7))
	type cl [3]Lit
	var formula []cl
	for i := 0; i < nClauses; i++ {
		var c cl
		for j := range c {
			c[j] = NewLit(Var(rng.Intn(nVars)), rng.Intn(2) == 0)
		}
		formula = append(formula, c)
	}
	load := func() *Solver {
		s := New()
		for i := 0; i < nVars; i++ {
			s.NewVar()
		}
		for _, c := range formula {
			s.AddClause(c[0], c[1], c[2])
		}
		return s
	}

	inc := load()
	inc.LearntFloor = 1 // reduce aggressively at every opportunity
	for q := 0; q < 40; q++ {
		a := NewLit(Var(rng.Intn(nVars)), rng.Intn(2) == 0)
		b := NewLit(Var(rng.Intn(nVars)), rng.Intn(2) == 0)
		want := load().Solve(a, b)
		if got := inc.Solve(a, b); got != want {
			t.Fatalf("query %d (%v,%v): incremental=%v fresh=%v", q, a, b, got, want)
		}
		switch q % 3 {
		case 0:
			inc.reduceDB()
		case 1:
			inc.TrimLearnts(4)
		}
		arenaConsistent(t, inc)
	}
}
