package ir

import "testing"

// countOp counts instructions (not terminators) with the given op.
func countOp(f *Func, op Op) int {
	n := 0
	for _, b := range f.Blocks {
		for _, v := range b.Instrs {
			if v.Op == op {
				n++
			}
		}
	}
	return n
}

func countAllocas(f *Func) int {
	n := 0
	for _, b := range f.Blocks {
		for _, v := range b.Instrs {
			if isAlloca(v) {
				n++
			}
		}
	}
	return n
}

// execDiff builds src twice, runs transform on one copy, and executes
// both over every row of args, requiring identical results. Step
// counts are deliberately not compared — the transforms exist to
// shorten execution.
func execDiff(t *testing.T, src, name string, args [][]uint64, transform func(*Func)) {
	t.Helper()
	ref := fn(t, build(t, src), name)
	opt := fn(t, build(t, src), name)
	transform(opt)
	for _, row := range args {
		want := run(t, ref, row, ExecOptions{})
		got := run(t, opt, row, ExecOptions{})
		if got.Ret != want.Ret || got.Returned != want.Returned {
			t.Errorf("%s(%v): optimized = (%d, %v), reference = (%d, %v)",
				name, row, got.Ret, got.Returned, want.Ret, want.Returned)
		}
	}
}

func promote(t *testing.T) (func(*Func), *SSAStats) {
	t.Helper()
	var stats SSAStats
	return func(f *Func) {
		stats = PromoteAllocas(f, ComputeDom(f))
	}, &stats
}

func TestPromoteStraightLine(t *testing.T) {
	src := `
int f(int a) {
	int x = a;
	int *p = &x;
	*p = *p + 1;
	return x + *p;
}
`
	tr, stats := promote(t)
	execDiff(t, src, "f", [][]uint64{{0}, {1}, {7}, {41}}, tr)
	if stats.PromotedAllocas != 1 {
		t.Errorf("PromotedAllocas = %d, want 1", stats.PromotedAllocas)
	}
	f := fn(t, build(t, src), "f")
	PromoteAllocas(f, ComputeDom(f))
	if n := countAllocas(f); n != 0 {
		t.Errorf("%d allocas survived promotion", n)
	}
	if n := countOp(f, OpLoad) + countOp(f, OpStore); n != 0 {
		t.Errorf("%d loads/stores survived promotion", n)
	}
}

func TestPromoteBranchPlacesPhi(t *testing.T) {
	src := `
int f(int a) {
	int x = 0;
	int *p = &x;
	if (a) {
		*p = 1;
	}
	return *p;
}
`
	tr, stats := promote(t)
	execDiff(t, src, "f", [][]uint64{{0}, {1}, {2}}, tr)
	if stats.PromotedAllocas != 1 || stats.PlacedPhis != 1 {
		t.Errorf("stats = %+v, want 1 promoted alloca and 1 phi at the join", *stats)
	}
}

func TestPromoteLoop(t *testing.T) {
	src := `
int f(int n) {
	int s = 0;
	int *p = &s;
	for (int i = 0; i < n; i++)
		*p = *p + i;
	return *p;
}
`
	tr, stats := promote(t)
	execDiff(t, src, "f", [][]uint64{{0}, {1}, {5}, {10}}, tr)
	if stats.PromotedAllocas != 1 {
		t.Errorf("PromotedAllocas = %d, want 1", stats.PromotedAllocas)
	}
	if stats.PlacedPhis == 0 {
		t.Error("a loop-carried promoted variable needs a header phi")
	}
}

// TestPromoteUninitReadsZero checks the ⊥ rule: a load with no
// reaching store materializes as const 0, matching the C* evaluator's
// zero-initialized memory.
func TestPromoteUninitReadsZero(t *testing.T) {
	src := `
int f(int a) {
	int x;
	int *p = &x;
	if (a) *p = 7;
	return *p;
}
`
	tr, _ := promote(t)
	execDiff(t, src, "f", [][]uint64{{0}, {1}}, tr)
	f := fn(t, build(t, src), "f")
	PromoteAllocas(f, ComputeDom(f))
	if r := run(t, f, []uint64{0}, ExecOptions{}); int32(r.Ret) != 0 {
		t.Errorf("uninitialized read after promotion = %d, want 0", int32(r.Ret))
	}
	if r := run(t, f, []uint64{1}, ExecOptions{}); int32(r.Ret) != 7 {
		t.Errorf("stored-path read after promotion = %d, want 7", int32(r.Ret))
	}
}

// TestPromoteEscapedAddress: an address passed to a call is observable,
// so the alloca must stay in memory form.
func TestPromoteEscapedAddress(t *testing.T) {
	src := `
int g(int *p) { return *p; }
int f() {
	int x = 3;
	return g(&x);
}
`
	f := fn(t, build(t, src), "f")
	stats := PromoteAllocas(f, ComputeDom(f))
	if stats.PromotedAllocas != 0 {
		t.Errorf("PromotedAllocas = %d, want 0 (address escapes into the call)", stats.PromotedAllocas)
	}
	if countAllocas(f) != 1 || countOp(f, OpStore) == 0 {
		t.Error("the escaped alloca and its store must survive")
	}
}

// TestPromoteArrayNotPromoted: array slots are addressed through
// OpIndexAddr, which counts as an escape of the base address.
func TestPromoteArrayNotPromoted(t *testing.T) {
	src := `
int f(int i) {
	int a[3];
	a[0] = 1;
	a[1] = 2;
	a[2] = 4;
	return a[i];
}
`
	tr, stats := promote(t)
	execDiff(t, src, "f", [][]uint64{{0}, {1}, {2}}, tr)
	if stats.PromotedAllocas != 0 {
		t.Errorf("PromotedAllocas = %d, want 0 for an indexed array", stats.PromotedAllocas)
	}
}

// TestPromoteTwoAllocas: independent address-taken scalars promote
// independently in one pass.
func TestPromoteTwoAllocas(t *testing.T) {
	src := `
int f(int a, int b) {
	int x = a;
	int y = b;
	int *p = &x;
	int *q = &y;
	*p = *p + *q;
	*q = *p - *q;
	return *p * 10 + *q;
}
`
	tr, stats := promote(t)
	execDiff(t, src, "f", [][]uint64{{1, 2}, {5, 3}, {0, 0}}, tr)
	if stats.PromotedAllocas != 2 {
		t.Errorf("PromotedAllocas = %d, want 2", stats.PromotedAllocas)
	}
}

// TestAddressTakenLocalKeepsItsValue runs the shapes where a local's
// address is taken after a join, or inside a loop, with no store of
// its current value in the block that takes it. A local whose address
// is taken stays in memory from its declaration on, so every path has
// stored its value before the address is read through.
func TestAddressTakenLocalKeepsItsValue(t *testing.T) {
	for _, tc := range []struct {
		name, src string
		rows      [][]uint64 // arguments, then the wanted result
	}{
		{"after a branch", `
int f(int n) {
	int x = 5;
	int *p;
	if (n)
		x = 9;
	p = &x;
	return *p;
}`, [][]uint64{{0, 5}, {1, 9}, {7, 9}}},
		{"in a loop", `
int f(int n) {
	int x = 0;
	int *p;
	while (n > 0) {
		x = x + 1;
		p = &x;
		n = n - 1;
	}
	return x;
}`, [][]uint64{{0, 0}, {1, 1}, {4, 4}}},
		{"a parameter", `
int f(int x, int c) {
	int *p;
	if (c)
		c = c + 1;
	p = &x;
	return *p;
}`, [][]uint64{{3, 0, 3}, {3, 1, 3}, {42, 7, 42}}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			f := fn(t, build(t, tc.src), "f")
			for _, row := range tc.rows {
				args, want := row[:len(row)-1], row[len(row)-1]
				if r := run(t, f, args, ExecOptions{}); r.Ret != want {
					t.Errorf("f%v = %d, want %d\n%s", args, r.Ret, want, f)
				}
			}
		})
	}
}
