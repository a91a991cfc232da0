package ir

import (
	"strings"
	"testing"

	"repro/internal/cc"
)

func build(t *testing.T, src string) *Program {
	t.Helper()
	f, err := cc.Parse("test.c", src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	if err := cc.Check(f); err != nil {
		t.Fatalf("check: %v", err)
	}
	p, err := Build(f)
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	return p
}

func fn(t *testing.T, p *Program, name string) *Func {
	t.Helper()
	f := p.Lookup(name)
	if f == nil {
		t.Fatalf("no function %q", name)
	}
	return f
}

func run(t *testing.T, f *Func, args []uint64, opts ExecOptions) ExecResult {
	t.Helper()
	r, err := Exec(f, args, opts)
	if err != nil {
		t.Fatalf("exec %s: %v", f.Name, err)
	}
	return r
}

func TestExecArithmetic(t *testing.T) {
	p := build(t, `
int calc(int a, int b) {
	return (a + b) * 2 - a / b + a % b;
}
`)
	f := fn(t, p, "calc")
	// (7+3)*2 - 7/3 + 7%3 = 20 - 2 + 1 = 19
	r := run(t, f, []uint64{7, 3}, ExecOptions{})
	if int64(int32(r.Ret)) != 19 {
		t.Fatalf("got %d, want 19", int32(r.Ret))
	}
}

func TestExecControlFlow(t *testing.T) {
	p := build(t, `
int max3(int a, int b, int c) {
	int m = a;
	if (b > m) m = b;
	if (c > m) m = c;
	return m;
}
`)
	f := fn(t, p, "max3")
	cases := [][4]uint64{{1, 2, 3, 3}, {5, 2, 3, 5}, {1, 9, 3, 9}}
	for _, c := range cases {
		r := run(t, f, c[:3], ExecOptions{})
		if r.Ret != c[3] {
			t.Fatalf("max3(%v) = %d, want %d", c[:3], r.Ret, c[3])
		}
	}
}

func TestExecLoops(t *testing.T) {
	p := build(t, `
int sumto(int n) {
	int s = 0;
	for (int i = 1; i <= n; i++)
		s += i;
	return s;
}
int collatz(int n) {
	int steps = 0;
	while (n != 1) {
		if (n % 2 == 0) n = n / 2;
		else n = 3 * n + 1;
		steps++;
	}
	return steps;
}
`)
	if r := run(t, fn(t, p, "sumto"), []uint64{100}, ExecOptions{}); r.Ret != 5050 {
		t.Fatalf("sumto(100) = %d", r.Ret)
	}
	if r := run(t, fn(t, p, "collatz"), []uint64{27}, ExecOptions{}); r.Ret != 111 {
		t.Fatalf("collatz(27) = %d, want 111", r.Ret)
	}
}

func TestExecDoWhileAndBreak(t *testing.T) {
	p := build(t, `
int f(int n) {
	int c = 0;
	do {
		c++;
		if (c > 10) break;
	} while (n--);
	return c;
}
`)
	if r := run(t, fn(t, p, "f"), []uint64{3}, ExecOptions{}); r.Ret != 4 {
		t.Fatalf("got %d, want 4", r.Ret)
	}
	if r := run(t, fn(t, p, "f"), []uint64{100}, ExecOptions{}); r.Ret != 11 {
		t.Fatalf("break: got %d, want 11", r.Ret)
	}
}

func TestExecShortCircuit(t *testing.T) {
	p := build(t, `
int f(int a, int b) {
	if (a != 0 && 10 / a > b)
		return 1;
	return 0;
}
`)
	f := fn(t, p, "f")
	// a == 0 must NOT evaluate 10/a (would trap on x86).
	r := run(t, f, []uint64{0, 1}, ExecOptions{Arch: ArchX86})
	if r.Ret != 0 {
		t.Fatalf("short circuit broken: %d", r.Ret)
	}
	if r := run(t, f, []uint64{2, 3}, ExecOptions{Arch: ArchX86}); r.Ret != 1 {
		t.Fatalf("10/2 > 3: got %d", r.Ret)
	}
}

func TestExecTernary(t *testing.T) {
	p := build(t, `int f(int x) { return x < 0 ? -x : x; }`)
	f := fn(t, p, "f")
	if r := run(t, f, []uint64{uint64(0xFFFFFFFF)}, ExecOptions{}); r.Ret != 1 { // -1 -> 1
		t.Fatalf("abs(-1) = %d", r.Ret)
	}
	if r := run(t, f, []uint64{7}, ExecOptions{}); r.Ret != 7 {
		t.Fatalf("abs(7) = %d", r.Ret)
	}
}

func TestExecMemory(t *testing.T) {
	p := build(t, `
int f(int n) {
	int arr[10];
	for (int i = 0; i < 10; i++)
		arr[i] = i * i;
	return arr[n];
}
`)
	if r := run(t, fn(t, p, "f"), []uint64{7}, ExecOptions{}); r.Ret != 49 {
		t.Fatalf("arr[7] = %d, want 49", r.Ret)
	}
}

func TestExecStructs(t *testing.T) {
	p := build(t, `
struct point { int x; int y; };
int f(int a, int b) {
	struct point p;
	p.x = a;
	p.y = b;
	return p.x * 1000 + p.y;
}
`)
	if r := run(t, fn(t, p, "f"), []uint64{12, 34}, ExecOptions{}); r.Ret != 12034 {
		t.Fatalf("got %d", r.Ret)
	}
}

func TestExecPointers(t *testing.T) {
	p := build(t, `
void set(int *p, int v) { *p = v; }
int f(int a) {
	int x = 1;
	int *px = &x;
	*px = a + 1;
	return x;
}
`)
	if r := run(t, fn(t, p, "f"), []uint64{41}, ExecOptions{}); r.Ret != 42 {
		t.Fatalf("got %d", r.Ret)
	}
}

// TestExecPostgresDivisionTrap reproduces paper §6.2.1/Fig. 10: the
// -2^63 / -1 division traps on x86-64 but wraps on other platforms
// (modeling the x86-32 lldiv behavior the Postgres developers tested).
func TestExecPostgresDivisionTrap(t *testing.T) {
	p := build(t, `
long divide(long arg1, long arg2) {
	long result = arg1 / arg2;
	return result;
}
`)
	f := fn(t, p, "divide")
	minI64 := uint64(1) << 63
	_, err := Exec(f, []uint64{minI64, ^uint64(0)}, ExecOptions{Arch: ArchX86})
	trap, ok := err.(*Trap)
	if !ok {
		t.Fatalf("x86: want trap, got %v", err)
	}
	if !strings.Contains(trap.Msg, "overflow") {
		t.Fatalf("trap: %v", trap)
	}
	// ARM (and the lldiv path): wraps silently to -2^63.
	r, err := Exec(f, []uint64{minI64, ^uint64(0)}, ExecOptions{Arch: ArchARM})
	if err != nil {
		t.Fatalf("arm: %v", err)
	}
	if r.Ret != minI64 {
		t.Fatalf("arm wrap: got %#x, want %#x", r.Ret, minI64)
	}
}

func TestExecDivByZeroTrapsOnX86(t *testing.T) {
	p := build(t, `int f(int a) { return 10 / a; }`)
	f := fn(t, p, "f")
	if _, err := Exec(f, []uint64{0}, ExecOptions{Arch: ArchX86}); err == nil {
		t.Fatal("want trap")
	}
	if r, err := Exec(f, []uint64{0}, ExecOptions{Arch: ArchARM}); err != nil || r.Ret != 0 {
		t.Fatalf("arm div0: %v %d", err, r.Ret)
	}
}

// TestExecShiftArchDifferences encodes §2.1's shift table:
// (1 << 32) is 1 on x86 and 0 on ARM/PowerPC for 32-bit operands;
// (1 << 64) is 0 on ARM but 1 on x86 and PowerPC.
func TestExecShiftArchDifferences(t *testing.T) {
	p := build(t, `int f(int x, int y) { return x << y; }`)
	f := fn(t, p, "f")
	get := func(arch Arch, amt uint64) uint64 {
		r := run(t, f, []uint64{1, amt}, ExecOptions{Arch: arch})
		return r.Ret
	}
	if got := get(ArchX86, 32); got != 1 {
		t.Fatalf("x86 1<<32 = %d, want 1", got)
	}
	if got := get(ArchARM, 32); got != 0 {
		t.Fatalf("arm 1<<32 = %d, want 0", got)
	}
	if got := get(ArchPPC, 32); got != 0 {
		t.Fatalf("ppc 1<<32 = %d, want 0", got)
	}
	if got := get(ArchX86, 64); got != 1 {
		t.Fatalf("x86 1<<64 = %d, want 1", got)
	}
	if got := get(ArchARM, 64); got != 0 {
		t.Fatalf("arm 1<<64 = %d, want 0", got)
	}
	if got := get(ArchPPC, 64); got != 1 {
		t.Fatalf("ppc 1<<64 = %d, want 1", got)
	}
}

// TestExecPdecInfiniteLoop reproduces paper Fig. 13: with C*
// wraparound, -INT_MIN stays negative, so the recursion-as-loop keeps
// printing '-'. Under C* (our evaluator) the check -k >= 0 correctly
// catches INT_MIN; the infinite loop only appears after an optimizer
// folds it (tested in the opt package).
func TestExecPdecNegation(t *testing.T) {
	p := build(t, `
int wraps_to_negative(int k) {
	if (k < 0) {
		if (-k >= 0)
			return 0; /* safe to negate */
		return 1; /* INT_MIN caught */
	}
	return 2;
}
`)
	f := fn(t, p, "wraps_to_negative")
	intMin := uint64(0x80000000)
	if r := run(t, f, []uint64{intMin}, ExecOptions{}); r.Ret != 1 {
		t.Fatalf("C* must catch INT_MIN, got %d", r.Ret)
	}
	if r := run(t, f, []uint64{0xFFFFFFFF}, ExecOptions{}); r.Ret != 0 { // -1
		t.Fatalf("-1 negates fine, got %d", r.Ret)
	}
}

func TestExecBuiltins(t *testing.T) {
	p := build(t, `
int f(int x) {
	char buf[8];
	buf[0] = 'a'; buf[1] = '.'; buf[2] = 'b'; buf[3] = 0;
	char *dot = strchr(buf, '.');
	if (!dot)
		return -1;
	return abs(x);
}
`)
	f := fn(t, p, "f")
	if r := run(t, f, []uint64{uint64(0xFFFFFFF6)}, ExecOptions{}); r.Ret != 10 { // abs(-10)
		t.Fatalf("abs(-10) = %d", r.Ret)
	}
}

func TestExecStepBudget(t *testing.T) {
	p := build(t, `int f(void) { while (1) { } return 0; }`)
	f := fn(t, p, "f")
	_, err := Exec(f, nil, ExecOptions{MaxSteps: 1000})
	if err != ErrSteps {
		t.Fatalf("want ErrSteps, got %v", err)
	}
}

func TestSSAPhiPlacement(t *testing.T) {
	p := build(t, `
int f(int c) {
	int x = 1;
	if (c)
		x = 2;
	return x;
}
`)
	f := fn(t, p, "f")
	// The return block must read a phi merging 1 and 2.
	phis := 0
	for _, b := range f.Blocks {
		for _, v := range b.Instrs {
			if v.Op == OpPhi {
				phis++
				if len(v.Args) != len(b.Preds) {
					t.Fatalf("phi args %d != preds %d", len(v.Args), len(b.Preds))
				}
			}
		}
	}
	if phis != 1 {
		t.Fatalf("want exactly 1 phi, got %d\n%s", phis, f)
	}
	if r := run(t, f, []uint64{0}, ExecOptions{}); r.Ret != 1 {
		t.Fatalf("f(0) = %d", r.Ret)
	}
	if r := run(t, f, []uint64{5}, ExecOptions{}); r.Ret != 2 {
		t.Fatalf("f(5) = %d", r.Ret)
	}
}

// TestBuildIsDeterministic: building one source twice gives the same
// IR, value numbers included. A loop header is sealed after its body,
// so the phis of the four loop-carried variables are completed at
// sealing time, and completing each one places a new phi in the block
// that merges the conditional update. The order in which the header's
// phis are completed decides the numbers of those new phis.
func TestBuildIsDeterministic(t *testing.T) {
	src := `
int f(int n) {
	int a = 0;
	int b = 1;
	int c = 2;
	int d = 3;
	for (int i = 0; i < n; i++) {
		if (i & 1) {
			a = a + 1;
			b = b + 2;
			c = c + 3;
			d = d + 4;
		}
	}
	return a + b + c + d;
}
`
	want := fn(t, build(t, src), "f").String()
	for i := 0; i < 20; i++ {
		if got := fn(t, build(t, src), "f").String(); got != want {
			t.Fatalf("build %d printed different IR:\n%s\nfirst build:\n%s", i+2, got, want)
		}
	}
}

func TestSSATrivialPhiRemoved(t *testing.T) {
	p := build(t, `
int f(int c) {
	int x = 1;
	if (c) { /* x unchanged */ }
	return x;
}
`)
	f := fn(t, p, "f")
	for _, b := range f.Blocks {
		for _, v := range b.Instrs {
			if v.Op == OpPhi {
				t.Fatalf("trivial phi not removed:\n%s", f)
			}
		}
	}
}

func TestDominators(t *testing.T) {
	p := build(t, `
int f(int a, int b) {
	int r = 0;
	if (a) {
		if (b) r = 1;
		else r = 2;
	}
	return r;
}
`)
	f := fn(t, p, "f")
	dom := ComputeDom(f)
	entry := f.Entry
	for _, b := range f.Blocks {
		if !dom.Dominates(entry, b) {
			t.Fatalf("entry must dominate b%d", b.ID)
		}
		doms := dom.Dominators(b)
		if doms[0] != entry || doms[len(doms)-1] != b {
			t.Fatalf("dominators of b%d: %v", b.ID, doms)
		}
	}
	// The exit block (with phi or ret) is dominated by entry only among
	// the if blocks.
	var retBlock *Block
	for _, b := range f.Blocks {
		if b.Term != nil && b.Term.Op == OpRet {
			retBlock = b
		}
	}
	if retBlock == nil {
		t.Fatal("no return block")
	}
	for _, b := range f.Blocks {
		if b != entry && b != retBlock && dom.Dominates(b, retBlock) {
			// Merge blocks between entry and ret may dominate ret; the
			// then/else leaves must not.
			if len(b.Succs) == 2 {
				continue
			}
			if len(b.Preds) > 1 {
				continue
			}
			t.Fatalf("b%d should not dominate the return\n%s", b.ID, f)
		}
	}
}

func TestBackEdges(t *testing.T) {
	p := build(t, `
int f(int n) {
	int s = 0;
	while (n > 0) { s += n; n--; }
	return s;
}
`)
	f := fn(t, p, "f")
	be := BackEdges(f)
	if len(be) != 1 {
		t.Fatalf("want 1 back edge, got %d", len(be))
	}
	p2 := build(t, `int g(int a) { if (a) return 1; return 0; }`)
	if be := BackEdges(fn(t, p2, "g")); len(be) != 0 {
		t.Fatalf("acyclic function has %d back edges", len(be))
	}
}

func TestInlining(t *testing.T) {
	p := build(t, `
static int double_it(int x) { return x * 2; }
int f(int a) { return double_it(a) + 1; }
`)
	InlineProgram(p, DefaultInlineOptions)
	f := fn(t, p, "f")
	// No remaining call to double_it.
	for _, b := range f.Blocks {
		for _, v := range b.Instrs {
			if v.Op == OpCall && v.AuxName == "double_it" {
				t.Fatalf("call not inlined:\n%s", f)
			}
		}
	}
	// Inlined instructions carry the origin.
	foundOrigin := false
	for _, b := range f.Blocks {
		for _, v := range b.Instrs {
			if v.Origin == "double_it" {
				foundOrigin = true
			}
		}
	}
	if !foundOrigin {
		t.Fatalf("inlined code lacks origin:\n%s", f)
	}
	if r := run(t, f, []uint64{20}, ExecOptions{}); r.Ret != 41 {
		t.Fatalf("f(20) = %d, want 41", r.Ret)
	}
}

func TestInlineMultipleReturns(t *testing.T) {
	p := build(t, `
static int sign(int x) {
	if (x > 0) return 1;
	if (x < 0) return -1;
	return 0;
}
int f(int a) { return sign(a) * 10; }
`)
	InlineProgram(p, DefaultInlineOptions)
	f := fn(t, p, "f")
	cases := map[uint64]uint64{5: 10, 0: 0}
	for in, want := range cases {
		if r := run(t, f, []uint64{in}, ExecOptions{}); r.Ret != want {
			t.Fatalf("f(%d) = %d, want %d\n%s", in, r.Ret, want, f)
		}
	}
	r := run(t, f, []uint64{uint64(0xFFFFFFFB)}, ExecOptions{}) // -5
	if int32(r.Ret) != -10 {
		t.Fatalf("f(-5) = %d, want -10", int32(r.Ret))
	}
}

func TestInlineRecursionGuard(t *testing.T) {
	p := build(t, `
int fact(int n) {
	if (n <= 1) return 1;
	return n * fact(n - 1);
}
`)
	InlineProgram(p, DefaultInlineOptions)
	f := fn(t, p, "fact")
	if r := run(t, f, []uint64{5}, ExecOptions{Program: p}); r.Ret != 120 {
		t.Fatalf("fact(5) = %d", r.Ret)
	}
}

func TestFuncString(t *testing.T) {
	p := build(t, `int f(int a) { return a + 1; }`)
	s := fn(t, p, "f").String()
	for _, want := range []string{"func f(", "add", "ret"} {
		if !strings.Contains(s, want) {
			t.Fatalf("printout missing %q:\n%s", want, s)
		}
	}
}

func TestUnsignedWraparound(t *testing.T) {
	p := build(t, `
unsigned int f(unsigned int x) { return x + 100; }
`)
	f := fn(t, p, "f")
	r := run(t, f, []uint64{0xFFFFFFFF}, ExecOptions{})
	if r.Ret != 99 {
		t.Fatalf("wraparound: got %d, want 99", r.Ret)
	}
}

func TestSignedOverflowFlagOnIR(t *testing.T) {
	p := build(t, `
int f(int x, unsigned int u) {
	int a = x + 100;
	unsigned int b = u + 100;
	return a + (int)b;
}
`)
	f := fn(t, p, "f")
	signedAdds, unsignedAdds := 0, 0
	for _, b := range f.Blocks {
		for _, v := range b.Instrs {
			if v.Op == OpAdd {
				if v.Signed {
					signedAdds++
				} else {
					unsignedAdds++
				}
			}
		}
	}
	if signedAdds < 2 || unsignedAdds < 1 {
		t.Fatalf("signedness flags wrong: %d signed, %d unsigned\n%s", signedAdds, unsignedAdds, f)
	}
}

func TestPointerArithScaling(t *testing.T) {
	p := build(t, `
int f(int *p, int i) {
	int *q = p + i;
	return (int)(q - p);
}
`)
	f := fn(t, p, "f")
	// q - p must scale back down to element units.
	if r := run(t, f, []uint64{0x1000, 7}, ExecOptions{}); r.Ret != 7 {
		t.Fatalf("pointer diff = %d, want 7", r.Ret)
	}
	// There must be a mul by 4 feeding a ptradd.
	foundScale := false
	for _, b := range f.Blocks {
		for _, v := range b.Instrs {
			if v.Op == OpPtrAdd {
				if v.Args[1].Op == OpMul {
					foundScale = true
				}
			}
		}
	}
	if !foundScale {
		t.Fatalf("no scaled pointer arithmetic:\n%s", f)
	}
}

func TestCompoundAssignAndIncrement(t *testing.T) {
	p := build(t, `
int f(int x) {
	x += 5;
	x <<= 1;
	x -= 3;
	x++;
	++x;
	return x--;
}
`)
	f := fn(t, p, "f")
	// ((x+5)<<1) - 3 + 2, returned before the final decrement.
	if r := run(t, f, []uint64{10}, ExecOptions{}); r.Ret != 29 {
		t.Fatalf("got %d, want 29", r.Ret)
	}
}

func TestGlobalVariables(t *testing.T) {
	p := build(t, `
int counter;
int bump(void) {
	counter = counter + 1;
	return counter;
}
`)
	f := fn(t, p, "bump")
	r := run(t, f, nil, ExecOptions{Globals: map[string]uint64{"counter": 41}})
	if r.Ret != 42 {
		t.Fatalf("got %d", r.Ret)
	}
}

func TestRemoveUnreachableBlocks(t *testing.T) {
	p := build(t, `
int f(int x) {
	return 1;
	return 2;
}
`)
	f := fn(t, p, "f")
	for _, b := range f.Blocks {
		if len(b.Preds) == 0 && b != f.Entry {
			t.Fatalf("unreachable block survived:\n%s", f)
		}
	}
}

// TestMultiDeclaratorLocals: the names of a local declaration with
// several declarators belong to the enclosing scope, so each program
// builds the same IR as its declarations written one per line.
func TestMultiDeclaratorLocals(t *testing.T) {
	for _, tc := range []struct{ joined, split string }{
		{
			"int f(int n) { int a, b; b = 2; return b + n; }",
			"int f(int n) { int a; int b; b = 2; return b + n; }",
		},
		{
			"int f(int n) { int a = 0, b = 1; return a + b + n; }",
			"int f(int n) { int a = 0; int b = 1; return a + b + n; }",
		},
		{
			"int f(int n) { int s = 0; for (int i = 0, j = n; i < j; i++) s = s + i; return s; }",
			"int f(int n) { int s = 0; { int i = 0; int j = n; for (; i < j; i++) s = s + i; } return s; }",
		},
	} {
		got := fn(t, build(t, tc.joined), "f").String()
		if want := fn(t, build(t, tc.split), "f").String(); got != want {
			t.Errorf("%s builds\n%s\nwant\n%s", tc.joined, got, want)
		}
	}
}
