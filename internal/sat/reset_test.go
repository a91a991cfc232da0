package sat

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"
)

// shapeDiff lists where a and b differ. Slices are compared by length
// only, so storage Reset keeps may hold anything past it; pointers are
// followed, so the heap is compared too. A field added to Solver later
// is compared without any change here.
func shapeDiff(path string, a, b reflect.Value) []string {
	switch a.Kind() {
	case reflect.Slice:
		if a.Len() != b.Len() {
			return []string{fmt.Sprintf("%s: len %d, want %d", path, a.Len(), b.Len())}
		}
		return nil
	case reflect.Pointer, reflect.Interface:
		if a.IsNil() || b.IsNil() {
			if a.IsNil() != b.IsNil() {
				return []string{fmt.Sprintf("%s: nil %v, want nil %v", path, a.IsNil(), b.IsNil())}
			}
			return nil
		}
		return shapeDiff(path, a.Elem(), b.Elem())
	case reflect.Struct:
		var out []string
		for i := 0; i < a.NumField(); i++ {
			out = append(out, shapeDiff(path+"."+a.Type().Field(i).Name, a.Field(i), b.Field(i))...)
		}
		return out
	}
	if !a.Equal(b) {
		return []string{fmt.Sprintf("%s: %v, want %v", path, a, b)}
	}
	return nil
}

// resetDiff lists the fields where s differs from a new solver.
func resetDiff(s *Solver) []string {
	return shapeDiff("Solver", reflect.ValueOf(s).Elem(), reflect.ValueOf(New()).Elem())
}

// usedSolver returns a solver that has been through an incremental
// session over a random 3-SAT instance guarded by activation literals:
// Sat and Unsat calls, learnt reductions, a changed learnt floor,
// a context and a conflict budget, and finally a level-0 conflict.
func usedSolver(seed int64) *Solver {
	const nVars, groups, perGroup = 120, 6, 80
	rng := rand.New(rand.NewSource(seed))
	s := New()
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
	s.Ctx = context.Background()
	s.MaxConflicts = 1 << 20
	s.LearntFloor = 8
	for q := 0; q < 12; q++ {
		var assume []Lit
		for g := range acts {
			if rng.Intn(2) == 0 {
				assume = append(assume, acts[g])
			}
		}
		s.SolveAssuming(assume...)
		s.TrimLearnts(16)
	}
	s.AddClause(acts[0])
	s.AddClause(acts[0].Not())
	s.Solve()
	return s
}

// TestResetEqualsNew: after Solve and Reset, a solver equals New()
// field by field, while its arrays keep their storage and every watch
// list up to the watch array's capacity is empty.
func TestResetEqualsNew(t *testing.T) {
	s := usedSolver(1)
	if s.Conflicts == 0 || s.LearntsDropped == 0 || s.ok {
		t.Fatalf("the used solver did not exercise the search: %d conflicts, %d dropped, ok=%v",
			s.Conflicts, s.LearntsDropped, s.ok)
	}
	s.Reset()
	for _, d := range resetDiff(s) {
		t.Error(d)
	}
	if cap(s.arena) == 0 || cap(s.watches) == 0 || cap(s.vals) == 0 || cap(s.order.heap) == 0 {
		t.Error("Reset dropped storage it should keep")
	}
	for i, ws := range s.watches[:cap(s.watches)] {
		if len(ws) != 0 {
			t.Fatalf("watch list %d holds %d watchers after Reset", i, len(ws))
		}
	}
	if s.order.act != &s.activity {
		t.Error("the heap no longer reads the solver's activities")
	}
}

// TestSearchPinnedAfterReset runs TestSearchPinned's suite, unedited,
// with every instance built on a solver that first solved an unrelated
// instance and was then reset: the search must be the one a new solver
// makes, to the last propagation.
func TestSearchPinnedAfterReset(t *testing.T) {
	seed := int64(100)
	newSolver = func() *Solver {
		seed++
		s := usedSolver(seed)
		s.Reset()
		return s
	}
	defer func() { newSolver = New }()
	TestSearchPinned(t)
}

// FuzzSolverReset solves a byte-decoded instance A under its
// assumption sets, resets the solver, and then runs a second instance
// B on it and on a new solver side by side: after Reset the solver
// must equal New(), and every call on B must give the same verdict,
// model, failed assumptions, search counters and clause arena on both.
func FuzzSolverReset(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{2, 4, 1, 0, 1, 1, 0x80, 0x81, 1, 0, 0x81, 1, 0x80, 1, 2, 0, 0x80, 1, 0x81, 0,
		3, 6, 2, 0, 1, 2, 0x81, 0x82, 1, 2, 1, 0x80, 0x81, 1, 0x82, 2, 0, 1, 1, 0x82})
	f.Add([]byte{11, 40, 2, 1, 2, 3, 2, 0x81, 4, 5, 2, 6, 0x87, 8, 3, 9, 10, 11, 0x80,
		2, 0x83, 0x85, 7, 2, 0x82, 0x84, 0x86, 1, 0x8a, 3, 0, 0x81, 2, 4, 1, 0x85, 0x86, 0x87, 0x88, 0,
		5, 30, 3, 0, 1, 2, 3, 3, 0x81, 0x82, 0x83, 0x84, 3, 0x80, 0x81, 2, 3,
		2, 0, 4, 0x84, 2, 0x80, 1, 0x82, 3, 4, 1, 2, 3})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 1024 {
			t.Skip("oversized input")
		}
		r := &fuzzReader{data: data}
		nA, cnfA, setsA := decodeInstance(r)
		nB, cnfB, setsB := decodeInstance(r)

		build := func(s *Solver, nVars int, cnf [][]Lit) {
			for i := 0; i < nVars; i++ {
				s.NewVar()
			}
			s.LearntFloor = 2
			for _, cl := range cnf {
				s.AddClause(cl...)
			}
		}
		used := New()
		build(used, nA, cnfA)
		for call, set := range setsA {
			used.SolveAssuming(set...)
			if call%2 == 0 {
				used.reduceDB()
			} else {
				used.TrimLearnts(1)
			}
		}
		used.Reset()
		if d := resetDiff(used); d != nil {
			t.Fatalf("after Reset: %v", d)
		}

		fresh := New()
		build(used, nB, cnfB)
		build(fresh, nB, cnfB)
		for call, set := range setsB {
			got, want := used.SolveAssuming(set...), fresh.SolveAssuming(set...)
			if got != want {
				t.Fatalf("call %d under %v: reset solver %v, new solver %v", call, set, got, want)
			}
			if g, w := recordSearch(used, got), recordSearch(fresh, want); g != w {
				t.Fatalf("call %d under %v: reset solver %+v, new solver %+v", call, set, g, w)
			}
			for v := 0; v < nB; v++ {
				if got == Sat && used.ModelValue(Var(v)) != fresh.ModelValue(Var(v)) {
					t.Fatalf("call %d under %v: models differ at variable %d", call, set, v)
				}
			}
			if !slices.Equal(used.arena, fresh.arena) {
				t.Fatalf("call %d under %v: clause arenas differ", call, set)
			}
			if call%2 == 0 {
				used.reduceDB()
				fresh.reduceDB()
			} else {
				used.TrimLearnts(1)
				fresh.TrimLearnts(1)
			}
		}
	})
}
