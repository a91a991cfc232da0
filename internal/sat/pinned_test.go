package sat

import (
	"fmt"
	"math/rand"
	"testing"
)

// searchRecord is everything a solve exposes about the search that
// produced it: the verdict, the cumulative counters, the retained
// learnt count and the failed assumptions.
type searchRecord struct {
	status       Status
	conflicts    int64
	decisions    int64
	propagations int64
	learnts      int
	dropped      int64
	failed       string
}

func recordSearch(s *Solver, st Status) searchRecord {
	r := searchRecord{
		status:       st,
		conflicts:    s.Conflicts,
		decisions:    s.Decisions,
		propagations: s.Propagations,
		learnts:      s.NumLearnts(),
		dropped:      s.LearntsDropped,
	}
	if st == Unsat {
		r.failed = fmt.Sprint(s.FailedAssumptions())
	}
	return r
}

// newSolver returns the solver every instance below is built on.
// TestSearchPinnedAfterReset swaps it for one that hands out reset
// solvers.
var newSolver = New

// random3SAT returns a seeded uniform random 3-SAT instance with n
// variables and round(ratio*n) clauses.
func random3SAT(seed int64, n int, ratio float64) *Solver {
	rng := rand.New(rand.NewSource(seed))
	s := newSolver()
	for i := 0; i < n; i++ {
		s.NewVar()
	}
	m := int(ratio*float64(n) + 0.5)
	for i := 0; i < m; i++ {
		s.AddClause(
			NewLit(Var(rng.Intn(n)), rng.Intn(2) == 1),
			NewLit(Var(rng.Intn(n)), rng.Intn(2) == 1),
			NewLit(Var(rng.Intn(n)), rng.Intn(2) == 1),
		)
	}
	return s
}

// pigeonhole returns the unsatisfiable instance of n+1 pigeons in n
// holes.
func pigeonhole(n int) *Solver {
	s := newSolver()
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
	return s
}

// activationSequence runs an incremental session in the style of the
// bv layer: seeded random 3-SAT groups, each guarded by an activation
// literal, queried under changing sets of activations on one solver.
// LearntFloor is lowered so the reductions between calls really drop
// clauses; calls alternate between reduceDB and TrimLearnts.
func activationSequence() []searchRecord {
	const nVars, groups, perGroup = 80, 8, 64
	rng := rand.New(rand.NewSource(3))
	s := newSolver()
	for i := 0; i < nVars; i++ {
		s.NewVar()
	}
	acts := make([]Lit, groups)
	for g := range acts {
		acts[g] = NewLit(s.NewVar(), false)
		for i := 0; i < perGroup; i++ {
			s.AddClause(acts[g].Not(),
				NewLit(Var(rng.Intn(nVars)), rng.Intn(2) == 1),
				NewLit(Var(rng.Intn(nVars)), rng.Intn(2) == 1),
				NewLit(Var(rng.Intn(nVars)), rng.Intn(2) == 1),
			)
		}
	}
	s.LearntFloor = 8
	var out []searchRecord
	for q := 0; q < 24; q++ {
		var assume []Lit
		for g := range acts {
			if rng.Intn(2) == 0 {
				assume = append(assume, acts[g])
			}
		}
		// A free literal among the assumptions makes some calls fail on
		// an assumption rather than on the groups alone.
		assume = append(assume, NewLit(Var(rng.Intn(nVars)), rng.Intn(2) == 1))
		out = append(out, recordSearch(s, s.SolveAssuming(assume...)))
		if q%2 == 0 {
			s.reduceDB()
		} else {
			s.TrimLearnts(16)
		}
	}
	return out
}

// TestSearchPinned pins the exact course of the search on a fixed
// suite: any change to propagation order, conflict analysis, decision
// order or learnt-clause reduction moves at least one of these
// numbers. A storage change that claims to keep the search must pass
// it unedited. The 200-variable instance runs long enough for reduceDB
// to fire inside the search.
func TestSearchPinned(t *testing.T) {
	solveOnce := func(s *Solver) func() []searchRecord {
		return func() []searchRecord { return []searchRecord{recordSearch(s, s.Solve())} }
	}
	cases := []struct {
		name string
		run  func() []searchRecord
		want []searchRecord
	}{
		{"3sat-100", solveOnce(random3SAT(11, 100, 4.26)), []searchRecord{
			{Unsat, 96, 126, 2231, 91, 0, "[]"},
		}},
		{"3sat-150", solveOnce(random3SAT(12, 150, 4.26)), []searchRecord{
			{Unsat, 648, 828, 18984, 638, 0, "[]"},
		}},
		{"3sat-200", solveOnce(random3SAT(13, 200, 4.26)), []searchRecord{
			{Unsat, 10229, 12611, 394007, 5910, 4309, "[]"},
		}},
		{"php-5", solveOnce(pigeonhole(5)), []searchRecord{
			{Unsat, 136, 171, 1594, 132, 0, "[]"},
		}},
		{"php-6", solveOnce(pigeonhole(6)), []searchRecord{
			{Unsat, 889, 1226, 12631, 884, 0, "[]"},
		}},
		{"php-7", solveOnce(pigeonhole(7)), []searchRecord{
			{Unsat, 5592, 7709, 88273, 5589, 0, "[]"},
		}},
		{"activation", activationSequence, []searchRecord{
			{Sat, 2, 33, 110, 2, 0, ""},
			{Sat, 11, 64, 380, 11, 0, ""},
			{Sat, 18, 100, 530, 18, 0, ""},
			{Sat, 22, 132, 690, 13, 9, ""},
			{Sat, 23, 156, 781, 14, 9, ""},
			{Sat, 25, 208, 935, 9, 16, ""},
			{Sat, 28, 232, 1049, 12, 16, ""},
			{Unsat, 181, 412, 4367, 158, 22, "[160 162 164 168 174 65]"},
			{Unsat, 224, 464, 5167, 52, 170, "[162 164 166 168 170 172 29]"},
			{Sat, 224, 493, 5255, 26, 196, ""},
			{Unsat, 270, 543, 6060, 58, 209, "[160 162 164 168 172 174 48]"},
			{Sat, 339, 644, 7539, 98, 238, ""},
			{Sat, 383, 716, 8495, 57, 323, ""},
			{Unsat, 415, 755, 9228, 60, 351, "[160 162 164 170 172 174 14]"},
			{Unsat, 439, 781, 9674, 38, 396, "[160 162 164 166 168 170 172 174 18]"},
			{Unsat, 610, 998, 13557, 189, 415, "[160 168 170 172 174 22]"},
			{Sat, 626, 1031, 13991, 28, 592, ""},
			{Sat, 626, 1068, 14079, 14, 606, ""},
			{Sat, 648, 1116, 14662, 36, 606, ""},
			{Sat, 651, 1149, 14788, 21, 624, ""},
			{Unsat, 703, 1213, 15802, 62, 634, "[160 162 168 170 172 174 46]"},
			{Sat, 703, 1239, 15890, 31, 665, ""},
			{Sat, 705, 1271, 15991, 18, 680, ""},
			{Unsat, 820, 1416, 18315, 123, 689, "[160 166 170 172 174 156]"},
		}},
	}
	for _, tc := range cases {
		got := tc.run()
		if len(got) != len(tc.want) {
			t.Fatalf("%s: %d solves, want %d", tc.name, len(got), len(tc.want))
		}
		for i := range got {
			if got[i] != tc.want[i] {
				t.Errorf("%s solve %d:\n got %+v\nwant %+v", tc.name, i, got[i], tc.want[i])
			}
		}
	}
}
