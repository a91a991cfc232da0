package ir

import "testing"

// sccpAfterPromote runs mem2reg then SCCP, the order RunSSAPasses
// uses; SCCP only sees through memory that promotion removed.
func sccpAfterPromote(t *testing.T) (func(*Func), *SCCPStats) {
	t.Helper()
	var stats SCCPStats
	return func(f *Func) {
		PromoteAllocas(f, ComputeDom(f))
		stats = SCCP(f)
	}, &stats
}

func TestSCCPFoldsBranchAndKillsDeadRegion(t *testing.T) {
	src := `
int f(int a) {
	int x = 3;
	int y;
	if (x < 5) {
		y = 10;
	} else {
		y = a;
	}
	return y + x;
}
`
	tr, stats := sccpAfterPromote(t)
	execDiff(t, src, "f", [][]uint64{{0}, {7}, {100}}, tr)
	if stats.FoldedBranches == 0 {
		t.Errorf("FoldedBranches = 0, want > 0 (3 < 5 is constant)")
	}
	if stats.UnreachableBlocks == 0 {
		t.Errorf("UnreachableBlocks = 0, want > 0 (the else branch is dead)")
	}
	// The phi at the join only meets executable in-edges, so y folds to
	// 10 and the whole return value to 13.
	if stats.FoldedValues == 0 {
		t.Errorf("FoldedValues = 0, want > 0")
	}
}

// TestSCCPLoopCarriedConstant: `mode` is a genuinely loop-carried
// constant — the builder's trivial-phi removal cannot see that
// phi(0, mode&7) is 0, but SCCP's optimistic iteration can. This is
// the one shape where SCCP beats encoding-level constant folding.
func TestSCCPLoopCarriedConstant(t *testing.T) {
	src := `
int f(int n) {
	int mode = 0;
	int i = 0;
	do {
		mode = mode & 7;
		i = i + 1;
	} while (i < n);
	return mode;
}
`
	tr, stats := sccpAfterPromote(t)
	execDiff(t, src, "f", [][]uint64{{0}, {1}, {5}}, tr)
	if stats.FoldedValues == 0 {
		t.Errorf("FoldedValues = 0, want > 0 (mode is constant 0 through the loop)")
	}
	f := fn(t, build(t, src), "f")
	PromoteAllocas(f, ComputeDom(f))
	SCCP(f)
	if n := countOp(f, OpAnd); n != 0 {
		t.Errorf("%d ands remain, want 0 (mode & 7 folds to 0)", n)
	}
}

// TestSCCPNeverFoldsSignedOverflow: INT_MAX + 1 is a concrete signed
// overflow. Folding it would erase the UB condition the checker must
// report, so the add stays and its lattice value is ⊥.
func TestSCCPNeverFoldsSignedOverflow(t *testing.T) {
	src := `
int f(int a) {
	int x = 2147483647;
	int y = x + 1;
	return y < a;
}
`
	f := fn(t, build(t, src), "f")
	PromoteAllocas(f, ComputeDom(f))
	SCCP(f)
	if n := countOp(f, OpAdd); n != 1 {
		t.Errorf("%d adds remain, want 1 (overflowing add must not fold)", n)
	}
}

func TestSCCPFoldsNonOverflowingSignedArith(t *testing.T) {
	src := `
int f(int a) {
	int x = 5;
	int y = x + 1;
	return y + a;
}
`
	f := fn(t, build(t, src), "f")
	PromoteAllocas(f, ComputeDom(f))
	st := SCCP(f)
	// 5 + 1 folds; y + a does not (a is ⊥).
	if n := countOp(f, OpAdd); n != 1 {
		t.Errorf("%d adds remain, want 1", n)
	}
	if st.FoldedValues == 0 {
		t.Errorf("FoldedValues = 0, want > 0")
	}
}

// TestSCCPNeverFoldsDivision: division traps are architecture-defined
// (§2.1); even a constant divisor computation keeps its instruction so
// the trap point and its UB condition survive.
func TestSCCPNeverFoldsDivision(t *testing.T) {
	src := `
int f(int a) {
	int x = 12;
	int y = 4;
	return a + x / y;
}
`
	f := fn(t, build(t, src), "f")
	PromoteAllocas(f, ComputeDom(f))
	SCCP(f)
	if n := countOp(f, OpSDiv); n != 1 {
		t.Errorf("%d sdivs remain, want 1 (division never folds)", n)
	}
}

// TestSCCPOriginParity: the checker's origin walk (DefOrigin) skips
// OpConst operands without reading their Origin, so a value whose
// definition tree carries a macro origin must not transmute — folding
// it would hide the origin from report filtering. A value carrying the
// origin itself is equally off-limits.
func TestSCCPOriginParity(t *testing.T) {
	src := `
int f(int n) {
	int mode = 0;
	int i = 0;
	do {
		mode = mode & 7;
		i = i + 1;
	} while (i < n);
	return mode + n;
}
`
	f := fn(t, build(t, src), "f")
	PromoteAllocas(f, ComputeDom(f))
	var and *Value
	for _, b := range f.Blocks {
		for _, v := range b.Instrs {
			if v.Op == OpAnd {
				and = v
			}
		}
	}
	if and == nil {
		t.Fatal("test setup: no and")
	}
	// The loop-carried phi feeding mode & 7 carries a macro origin.
	var phiArg *Value
	for _, a := range and.Args {
		if a.Op == OpPhi {
			phiArg = a
		}
	}
	if phiArg == nil {
		t.Fatal("test setup: and has no phi operand")
	}
	phiArg.Origin = "MACRO_X"
	SCCP(f)
	if phiArg.Op == OpConst {
		t.Error("origin-carrying phi transmuted; DefOrigin walks would lose MACRO_X")
	}
	if and.Op == OpConst {
		t.Error("value over an origin-carrying operand transmuted; DefOrigin walks would lose MACRO_X")
	}
}

// TestRunSSAPassesStatsCoverNewPasses drives the full stack over a
// function with a constant branch and checks that RunSSAPasses
// surfaces SCCP's counters.
func TestRunSSAPassesStatsCoverNewPasses(t *testing.T) {
	src := `
int f(int a, int b) {
	int k = 3;
	int y = 0;
	if (k < 5) {
		y = a & b;
	} else {
		y = 1;
	}
	int x = a & b;
	return x + y;
}
`
	var ps PassStats
	execDiff(t, src, "f",
		[][]uint64{{0, 0}, {1, 2}, {7, 9}},
		func(f *Func) { ps = RunSSAPasses(f, ComputeDom(f)) })
	if ps.SCCPFoldedBranches == 0 {
		t.Errorf("SCCPFoldedBranches = 0, want > 0 (k < 5 is constant)")
	}
	if ps.SCCPUnreachableBlocks == 0 {
		t.Errorf("SCCPUnreachableBlocks = 0, want > 0 (else branch dead)")
	}
}
