package bv

import (
	"context"
	"fmt"
	"reflect"
	"strings"
	"testing"
	"time"
)

// TestSessionIncrementalAmortizesBlasting: a query sequence over one
// shared encoding must blast each term once in incremental mode, while
// scratch mode re-encodes per query — with identical verdicts.
func TestSessionIncrementalAmortizesBlasting(t *testing.T) {
	bld := NewBuilder()
	x := bld.Var("x", 8)
	y := bld.Var("y", 8)
	sum := bld.Add(x, y)
	// A query pair in the checker's shape: a reachability-style predicate,
	// then a Δ-style refinement over the same encoding, then masking
	// variants that reuse every term.
	q1 := bld.ULT(sum, bld.ConstInt64(200, 8))
	q2 := bld.Eq(sum, bld.ConstInt64(10, 8))
	q3 := bld.ULT(x, bld.ConstInt64(5, 8))

	inc := NewSession(bld, nil)
	scr := NewSession(bld, nil)
	scr.Scratch = true

	queries := [][]*Term{{q1}, {q1, q2}, {q1, q2, q3}, {q2, q3}, {q1}}
	for i, q := range queries {
		ri, rs := inc.Solve(q...), scr.Solve(q...)
		if ri != rs {
			t.Fatalf("query %d: incremental=%v scratch=%v", i, ri, rs)
		}
		if ri != Sat {
			t.Fatalf("query %d: %v, want sat", i, ri)
		}
		if inc.HasModel() && i >= 1 && i <= 3 { // queries that include q2
			if v := inc.Value(sum); v.Int64() != 10 {
				t.Fatalf("query %d: model sum=%v violates q2", i, v)
			}
		}
	}
	if inc.Queries != int64(len(queries)) || scr.Queries != int64(len(queries)) {
		t.Fatalf("query counts: inc=%d scr=%d want %d", inc.Queries, scr.Queries, len(queries))
	}
	if inc.Blasts() >= scr.Blasts() {
		t.Errorf("incremental blasted %d terms, scratch %d; reuse not happening", inc.Blasts(), scr.Blasts())
	}
	// The repeat of q1 (all terms cached) must not count as a blast pass.
	if inc.BlastPasses >= inc.Queries {
		t.Errorf("blast passes %d not amortized over %d queries", inc.BlastPasses, inc.Queries)
	}
	if scr.BlastPasses != scr.Queries {
		t.Errorf("scratch blast passes %d, want one per query (%d)", scr.BlastPasses, scr.Queries)
	}
	if scr.LearntsReused != 0 {
		t.Errorf("scratch reused %d learned clauses, want 0", scr.LearntsReused)
	}
}

// TestSessionUnsatCoreMatchesScratch: SolveCore verdicts and fast-path
// accounting agree between the modes, and unsat cores identify the
// same contradictory assumptions on propagation-decided queries.
func TestSessionUnsatCoreMatchesScratch(t *testing.T) {
	bld := NewBuilder()
	x := bld.Var("x", 8)
	lt := bld.ULT(x, bld.ConstInt64(4, 8))
	ge := bld.ULE(bld.ConstInt64(7, 8), x)
	mid := bld.Eq(bld.And(x, bld.ConstInt64(0xF0, 8)), bld.ConstInt64(0, 8))

	for _, scratch := range []bool{false, true} {
		s := NewSession(bld, nil)
		s.Scratch = scratch
		res, core := s.SolveCore(mid, lt, ge)
		if res != Unsat {
			t.Fatalf("scratch=%v: %v, want unsat", scratch, res)
		}
		has := map[int]bool{}
		for _, i := range core {
			has[i] = true
		}
		if !has[1] || !has[2] {
			t.Errorf("scratch=%v: core %v misses the contradictory pair {1,2}", scratch, core)
		}
		// The session stays usable after Unsat.
		if res := s.Solve(mid, lt); res != Sat {
			t.Fatalf("scratch=%v: follow-up query %v, want sat", scratch, res)
		}
		if v := s.Value(x); v.Int64() >= 4 {
			t.Errorf("scratch=%v: model x=%v violates x<4", scratch, v)
		}
	}
}

// hardQuery builds a query far beyond the solver's reach: 16-bit
// multiplication distributivity, a classic CDCL-hostile instance. Its
// only fast exit is an interrupt. (Commutativity x*y ≠ y*x, the usual
// choice, no longer works: chain canonicalization interns both
// products to one node and the query folds to false at construction.)
func hardQuery(bld *Builder) *Term {
	x := bld.Var("hardx", 16)
	y := bld.Var("hardy", 16)
	z := bld.Var("hardz", 16)
	lhs := bld.Mul(x, bld.Add(y, z))
	rhs := bld.Add(bld.Mul(x, y), bld.Mul(x, z))
	return bld.Ne(lhs, rhs)
}

// TestSessionContextCancellation: a long query under a context that is
// cancelled mid-search returns Unknown promptly — within one solver
// check interval, not after the search would have finished — and every
// later query on the cancelled context short-circuits.
func TestSessionContextCancellation(t *testing.T) {
	bld := NewBuilder()
	q := hardQuery(bld)
	s := NewSession(bld, nil)

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go func() {
		time.Sleep(100 * time.Millisecond)
		cancel()
	}()
	done := make(chan Result, 1)
	go func() { done <- s.SolveContext(ctx, q) }()
	select {
	case res := <-done:
		if res != Unknown {
			t.Fatalf("cancelled long query returned %v, want unknown", res)
		}
	case <-time.After(15 * time.Second):
		t.Fatal("cancelled query did not return within 15s")
	}
	if ctx.Err() == nil {
		t.Fatal("test bug: context not cancelled")
	}
	if s.Timeouts != 1 {
		t.Errorf("Timeouts = %d, want 1 (cancellation counts as an Unknown verdict)", s.Timeouts)
	}

	// Follow-up queries on the dead context return immediately,
	// without blasting: this is what lets a cancelled checker drain
	// its remaining candidates in microseconds.
	start := time.Now()
	if res := s.SolveContext(ctx, bld.Eq(bld.Var("z", 8), bld.ConstInt64(1, 8))); res != Unknown {
		t.Errorf("query on cancelled context returned %v, want unknown", res)
	}
	if d := time.Since(start); d > time.Second {
		t.Errorf("query on cancelled context took %v; must short-circuit", d)
	}
}

// TestSessionContextDeadline: a context deadline bounds a query the
// same way the legacy wall-clock timeout did.
func TestSessionContextDeadline(t *testing.T) {
	bld := NewBuilder()
	q := hardQuery(bld)
	s := NewSession(bld, nil)
	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	done := make(chan Result, 1)
	go func() { done <- s.SolveContext(ctx, q) }()
	select {
	case res := <-done:
		if res != Unknown {
			t.Fatalf("deadline-bounded long query returned %v, want unknown", res)
		}
	case <-time.After(15 * time.Second):
		t.Fatal("deadline-bounded query did not return within 15s")
	}
}

// TestSessionTimeoutField: the per-query Timeout knob still works,
// now implemented as a derived context deadline.
func TestSessionTimeoutField(t *testing.T) {
	bld := NewBuilder()
	q := hardQuery(bld)
	s := NewSession(bld, nil)
	s.Timeout = 100 * time.Millisecond
	done := make(chan Result, 1)
	go func() { done <- s.Solve(q) }()
	select {
	case res := <-done:
		if res != Unknown {
			t.Fatalf("timed-out long query returned %v, want unknown", res)
		}
		if s.Timeouts != 1 {
			t.Errorf("Timeouts = %d, want 1", s.Timeouts)
		}
	case <-time.After(15 * time.Second):
		t.Fatal("timed-out query did not return within 15s")
	}
}

// TestSessionFastPathNoModel: constant queries are answered without a
// SAT core in both modes and carry no model.
func TestSessionFastPathNoModel(t *testing.T) {
	bld := NewBuilder()
	x := bld.Var("x", 8)
	for _, scratch := range []bool{false, true} {
		s := NewSession(bld, nil)
		s.Scratch = scratch
		if got := s.Solve(bld.ULE(bld.ConstInt64(0, 8), x)); got != Sat {
			t.Fatalf("scratch=%v: const-true: %v", scratch, got)
		}
		if s.HasModel() {
			t.Errorf("scratch=%v: fast-path Sat claims a model", scratch)
		}
		if got := s.Solve(bld.ULT(x, bld.ConstInt64(0, 8))); got != Unsat {
			t.Fatalf("scratch=%v: const-false: %v", scratch, got)
		}
		if s.FastPaths != 2 {
			t.Errorf("scratch=%v: FastPaths=%d, want 2", scratch, s.FastPaths)
		}
		if s.BlastPasses != 0 {
			t.Errorf("scratch=%v: fast paths blasted terms (%d passes)", scratch, s.BlastPasses)
		}
	}
}

// TestSessionWitnessChain runs a checker-shaped chain (reachability,
// then the Δ query, then masking variants) in which later queries are
// answered from a stored satisfying assignment. Verdicts and Unsat
// cores must equal a scratch session's, the skipped blasting must
// show, constant assumptions must stay fast paths, and a cancelled
// context must win over a stored assignment.
func TestSessionWitnessChain(t *testing.T) {
	bld := NewBuilder()
	x := bld.Var("x", 8)
	y := bld.Var("y", 8)
	reach := bld.ULT(x, bld.ConstInt64(10, 8))
	d1 := bld.Ne(y, bld.ConstInt64(0, 8))
	d2 := bld.ULT(bld.Add(x, y), bld.ConstInt64(200, 8))
	d3 := bld.Eq(x, bld.ConstInt64(200, 8)) // contradicts reach
	// Only ever queried where reach holds, under which it is true; no
	// other query blasts it.
	d4 := bld.ULT(bld.And(x, bld.ConstInt64(0xF0, 8)), bld.ConstInt64(16, 8))

	chain := [][]*Term{
		{reach},             // reachability
		{reach, d1, d2},     // Δ
		{reach, d1},         // masking: drop d2
		{reach, d2},         // masking: drop d1
		{reach, d1, d2, d3}, // Unsat
		{reach, d4},         // new terms, answered without blasting them
		{reach, d1, d3},     // Unsat again
		{reach},
	}
	inc := NewSession(bld, nil)
	scr := NewSession(bld, nil)
	scr.Scratch = true
	plain := NewSession(bld, nil) // queried without its witness ring
	for i, q := range chain {
		ri, ci := inc.SolveCore(q...)
		rs, cs := scr.SolveCore(q...)
		solvePlain(plain, true, q...)
		if ri != rs || !reflect.DeepEqual(ci, cs) {
			t.Fatalf("query %d: incremental %v %v, scratch %v %v", i, ri, ci, rs, cs)
		}
		if ri == Sat {
			if !inc.HasModel() {
				t.Fatalf("query %d: Sat without a model", i)
			}
			for _, a := range q {
				if inc.Value(a).Sign() == 0 {
					t.Fatalf("query %d: model falsifies assumption %s (witnessed=%v)", i, a, inc.witnessed)
				}
			}
		}
	}
	if inc.WitnessHits < 3 {
		t.Errorf("WitnessHits = %d, want the masking queries and d4 answered from the ring", inc.WitnessHits)
	}
	if scr.WitnessHits != 0 {
		t.Errorf("scratch session answered %d queries from stored assignments", scr.WitnessHits)
	}
	if inc.Blasts() >= plain.Blasts() {
		t.Errorf("session blasted %d terms, a solver without stored assignments %d; want strictly fewer",
			inc.Blasts(), plain.Blasts())
	}

	// A constant-false assumption is a fast path, not a witness hit,
	// even though a stored assignment satisfies the rest.
	hits, fast := inc.WitnessHits, inc.FastPaths
	if res, core := inc.SolveCore(reach, bld.ULT(x, bld.ConstInt64(0, 8))); res != Unsat || !reflect.DeepEqual(core, []int{1}) {
		t.Fatalf("const-false query: %v %v, want unsat [1]", res, core)
	}
	if inc.FastPaths != fast+1 || inc.WitnessHits != hits {
		t.Errorf("const-false query: FastPaths %d→%d, WitnessHits %d→%d; want one fast path, no hit",
			fast, inc.FastPaths, hits, inc.WitnessHits)
	}

	// A cancelled context returns Unknown although the front of the
	// ring satisfies the query.
	if !inc.wit.satisfies(inc.wit.ring[0], []*Term{reach}) {
		t.Fatal("test bug: the stored assignment does not satisfy reach")
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	timeouts := inc.Timeouts
	if res := inc.SolveContext(ctx, reach); res != Unknown {
		t.Errorf("cancelled query: %v, want unknown", res)
	}
	if inc.WitnessHits != hits || inc.Timeouts != timeouts+1 || inc.HasModel() {
		t.Errorf("cancelled query: WitnessHits %d→%d, Timeouts %d→%d, HasModel %v",
			hits, inc.WitnessHits, timeouts, inc.Timeouts, inc.HasModel())
	}
}

// solvePlain runs a query through s's query steps without the witness
// ring: a query its constants do not decide is always blasted and
// searched, on the session's incremental solver, and no model is
// stored.
func solvePlain(s *Session, wantCore bool, q ...*Term) (Result, []int) {
	sv := s.solverForQuery()
	if res, core, ok := constShortcut(q); ok {
		return res, core
	}
	return s.search(context.Background(), sv, q, wantCore)
}

// TestSessionRecycledMatchesFresh: a solver given back by a session
// whose last query panicked mid-blast (a width-8 assumption after a
// width-1 one that was blasted first) and handed to a new session over
// another builder answers every query as a new solver does: the same
// verdicts, cores, model values, work counters and SAT search. As in
// the checker, the new builder allocates from the same reset arena, so
// its terms take the addresses of the old ones.
func TestSessionRecycledMatchesFresh(t *testing.T) {
	arena := NewArena()
	old := NewBuilderArena(arena)
	a := old.Var("a", 16)
	b := old.Var("b", 16)
	prod := old.Mul(a, b)
	used := NewSession(old, nil)
	used.Solve(old.Eq(prod, old.ConstInt64(391, 16)), old.ULT(a, old.ConstInt64(100, 16)))
	used.inc.sat.TrimLearnts(4)
	used.SolveCore(old.Eq(a, old.ConstInt64(3, 16)), old.Eq(a, old.ConstInt64(4, 16)))
	used.inc.sat.TrimLearnts(4)
	blasts := used.Blasts()
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("a width-8 assumption did not panic")
			}
		}()
		used.Solve(old.Eq(b, old.ConstInt64(60000, 16)), old.Var("c", 8))
	}()
	if used.Blasts() == blasts {
		t.Fatal("the panicking query blasted nothing before it panicked")
	}
	sv := used.Release()
	if sv == nil || sv.sat.Propagations == 0 {
		t.Fatal("the released solver did no work")
	}
	arena.Reset()

	run := func(bld *Builder, spare *Solver) (*Session, []string) {
		x := bld.Var("x", 8)
		y := bld.Var("y", 8)
		reach := bld.ULT(x, bld.ConstInt64(10, 8))
		d1 := bld.Ne(y, bld.ConstInt64(0, 8))
		d2 := bld.ULT(bld.Add(x, y), bld.ConstInt64(200, 8))
		d3 := bld.Eq(x, bld.ConstInt64(200, 8))
		d4 := bld.Eq(bld.Mul(x, y), bld.ConstInt64(42, 8))
		s := NewSession(bld, spare)
		if spare != nil {
			// Apart from its SAT core and blaster, the reset solver
			// equals a new one field by field.
			got, want := *spare, *newSolver(bld)
			got.sat, got.bl, want.sat, want.bl = nil, nil, nil, nil
			if !reflect.DeepEqual(got, want) {
				t.Errorf("reset solver %+v, new solver %+v", got, want)
			}
		}
		var log []string
		for _, q := range [][]*Term{{reach}, {reach, d1, d2}, {reach, d1}, {reach, d1, d2, d3}, {reach, d4}, {d4, d3}} {
			res, core := s.SolveCore(q...)
			entry := fmt.Sprint(res, core)
			if res == Sat {
				entry += fmt.Sprint(" x=", s.Value(x), " y=", s.Value(y))
			}
			log = append(log, entry)
		}
		vars, clauses := satSize(s.inc)
		log = append(log, fmt.Sprint("queries ", s.Queries, " fast ", s.FastPaths, " timeouts ", s.Timeouts,
			" blasts ", s.Blasts(), " passes ", s.BlastPasses, " reused ", s.LearntsReused,
			" dropped ", s.LearntsDropped(), " hits ", s.WitnessHits, " vars ", vars, " clauses ", clauses,
			" props ", s.inc.sat.Propagations, " conflicts ", s.inc.sat.Conflicts, " decisions ", s.inc.sat.Decisions))
		return s, log
	}
	rec, got := run(NewBuilderArena(arena), sv)
	if rec.inc != sv {
		t.Fatal("the session did not use the recycled solver")
	}
	_, want := run(NewBuilder(), nil)
	if !reflect.DeepEqual(got, want) {
		t.Errorf("recycled solver:\n%s\nnew solver:\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
}
