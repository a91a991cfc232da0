package ir

import "testing"

// loopHeadOf returns the natural-loop header — the target of the
// function's single back edge — or nil.
func loopHeadOf(f *Func) *Block {
	for e := range BackEdges(f) {
		return e[1]
	}
	return nil
}

func TestGVNCrossBlockMergesDominatedDuplicate(t *testing.T) {
	src := `
int f(int a, int b) {
	int x = a & b;
	int y = 0;
	if (a) {
		int t = b ^ 3;
		y = (a & b) | t;
	}
	return x + y;
}
`
	execDiff(t, src, "f", [][]uint64{{0, 0}, {1, 2}, {7, 9}}, func(f *Func) {
		PromoteAllocas(f, ComputeDom(f))
		_, cross := GVN(f, ComputeDom(f))
		if cross != 1 {
			t.Errorf("cross-block hits = %d, want 1", cross)
		}
	})
	f := fn(t, build(t, src), "f")
	PromoteAllocas(f, ComputeDom(f))
	GVN(f, ComputeDom(f))
	// OpAnd carries no UB condition and the duplicate is not its
	// block's report anchor (the xor is), so it is deleted outright.
	if n := countOp(f, OpAnd); n != 1 {
		t.Errorf("%d ands remain, want 1 (dominated duplicate deleted)", n)
	}
}

// TestGVNCrossBlockKeepsUBCarrier: a signed multiply carries an
// overflow condition whose guarded ∆ form names its own block's
// reachability. The dominated duplicate's uses are redirected, but the
// instruction stays as a condition carrier.
func TestGVNCrossBlockKeepsUBCarrier(t *testing.T) {
	src := `
int f(int a, int b) {
	int x = a * b;
	int y = 0;
	if (a) {
		y = a * b;
	}
	return x + y;
}
`
	f := fn(t, build(t, src), "f")
	PromoteAllocas(f, ComputeDom(f))
	_, cross := GVN(f, ComputeDom(f))
	if cross != 1 {
		t.Fatalf("cross-block hits = %d, want 1", cross)
	}
	if n := countOp(f, OpMul); n != 2 {
		t.Errorf("%d muls remain, want 2 (UB-carrying victim kept as condition carrier)", n)
	}
	// The redirect must still have happened: no remaining use of the
	// victim mul.
	var muls []*Value
	for _, b := range f.Blocks {
		for _, v := range b.Instrs {
			if v.Op == OpMul {
				muls = append(muls, v)
			}
		}
	}
	victim := muls[1]
	for _, b := range f.Blocks {
		for v := range b.All() {
			for _, a := range v.Args {
				if a == victim {
					t.Errorf("use of the victim mul survives in %v", v.Op)
				}
			}
		}
	}
}

func TestHoistLoopInvariantFromDoWhile(t *testing.T) {
	src := `
int f(int a, int b, int n) {
	int s = 0;
	int i = 0;
	do {
		s = s ^ i;
		s = s + a * b;
		i = i + 1;
	} while (i < n);
	return s;
}
`
	execDiff(t, src, "f", [][]uint64{{0, 0, 0}, {2, 3, 1}, {2, 3, 5}}, func(f *Func) {
		dom := ComputeDom(f)
		PromoteAllocas(f, dom)
		if hoisted, _ := HoistLoopInvariantUB(f, dom); hoisted != 1 {
			t.Errorf("hoisted = %d, want 1 (the signed multiply)", hoisted)
		}
	})
	f := fn(t, build(t, src), "f")
	dom := ComputeDom(f)
	PromoteAllocas(f, dom)
	HoistLoopInvariantUB(f, dom)
	head := loopHeadOf(f)
	if head == nil {
		t.Fatal("no back edge found")
	}
	for _, v := range head.Instrs {
		if v.Op == OpMul {
			t.Error("a * b still in the loop header after hoisting")
		}
	}
	if n := countOp(f, OpMul); n != 1 {
		t.Errorf("%d muls total, want 1 (moved, not duplicated)", n)
	}
}

// TestHoistSkipsLoopVaryingValues: s + (a*b) depends on the loop-carried
// phi s and must stay; only the invariant multiply moves.
func TestHoistSkipsLoopVaryingValues(t *testing.T) {
	src := `
int f(int a, int b, int n) {
	int s = 0;
	int i = 0;
	do {
		s = s + a * b + i;
		i = i + 1;
	} while (i < n);
	return s;
}
`
	f := fn(t, build(t, src), "f")
	dom := ComputeDom(f)
	PromoteAllocas(f, dom)
	HoistLoopInvariantUB(f, dom)
	head := loopHeadOf(f)
	if head == nil {
		t.Fatal("no back edge found")
	}
	adds := 0
	for _, v := range head.Instrs {
		if v.Op == OpAdd {
			adds++
		}
	}
	if adds < 2 {
		t.Errorf("%d adds left in loop header, want >= 2 (s+… and i+1 are loop-varying)", adds)
	}
}

// TestHoistDoesNotFireOnForLoop: a for loop's back-edge target is the
// condition block, which holds only the exit test; nothing UB-carrying
// lives there and the body does not execute unconditionally.
func TestHoistDoesNotFireOnForLoop(t *testing.T) {
	src := `
int f(int a, int b, int n) {
	int s = 0;
	for (int i = 0; i < n; i++) {
		s = s + a * b;
	}
	return s;
}
`
	f := fn(t, build(t, src), "f")
	dom := ComputeDom(f)
	PromoteAllocas(f, dom)
	if _, moved := HoistLoopInvariantUB(f, dom); moved != 0 {
		t.Errorf("moved = %d, want 0 (for-loop body is conditional)", moved)
	}
}

// TestRunSSAPassesStatsCoverNewPasses drives the full stack over a
// function exercising SCCP, cross-block GVN, and hoisting at once and
// checks each pass surfaces its counter.
func TestRunSSAPassesStatsCoverNewPasses(t *testing.T) {
	src := `
int f(int a, int b, int n) {
	int k = 3;
	int y = 0;
	if (k < 5) {
		y = a & b;
	} else {
		y = 1;
	}
	int x = a & b;
	int s = 0;
	int i = 0;
	do {
		s = s ^ i;
		s = s + a * b;
		i = i + 1;
	} while (i < n);
	return x + y + s;
}
`
	var ps PassStats
	execDiff(t, src, "f",
		[][]uint64{{0, 0, 1}, {1, 2, 3}, {7, 9, 2}},
		func(f *Func) { ps = RunSSAPasses(f, ComputeDom(f)) })
	if ps.SCCPFoldedBranches == 0 {
		t.Errorf("SCCPFoldedBranches = 0, want > 0 (k < 5 is constant)")
	}
	if ps.SCCPUnreachableBlocks == 0 {
		t.Errorf("SCCPUnreachableBlocks = 0, want > 0 (else branch dead)")
	}
	if ps.HoistedUBTerms != 1 {
		t.Errorf("HoistedUBTerms = %d, want 1 (a * b in the do-while)", ps.HoistedUBTerms)
	}
}
