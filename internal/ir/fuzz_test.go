package ir

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"repro/internal/cc"
)

// Per-pass differential fuzzing: each SSA pass whose contract is
// "C*-semantics preserving" is driven over arbitrary C sources and
// checked against the concrete evaluator — the original and the
// transformed function must agree on every probed input row. This is
// the execution-level half of the pass oracles; the report-level half
// (byte-identical checker output when nothing sharpened) is
// core.FuzzSSADifferential.

// fuzzBuild parses, checks, and lowers src, returning nil when the
// source is not a buildable program (the fuzzer's job is to find
// miscompiles, not frontend rejections).
func fuzzBuild(src string) *Program { return fuzzBuildWith(src, Build) }

// fuzzRows probes n-argument functions with boundary-heavy inputs.
func fuzzRows(n int) [][]uint64 {
	pats := []uint64{0, 1, 2, 7, 0x7fffffff, 0x80000000, 0xffffffff, 0x8000000000000000}
	rows := make([][]uint64, 0, len(pats)+1)
	for _, p := range pats {
		row := make([]uint64, n)
		for i := range row {
			row[i] = p + uint64(i)
		}
		rows = append(rows, row)
	}
	mixed := make([]uint64, n)
	for i := range mixed {
		mixed[i] = pats[i%len(pats)]
	}
	return append(rows, mixed)
}

// fuzzExecDiff first checks the ID invariant through the checker's IR
// stages on src (checkIDsThroughPipeline). It then builds src twice,
// transforms every function of one copy, and requires the evaluator
// to agree on result, return-ness, and trap behavior for every probed
// row. Rows where either side
// exhausts the step budget are skipped — the transforms exist to
// shorten execution, so step counts may legitimately differ.
func fuzzExecDiff(t *testing.T, src string, transform func(*Func)) {
	ref := fuzzBuild(src)
	if ref == nil {
		return
	}
	if err := checkIDsThroughPipeline(fuzzBuild(src)); err != nil {
		t.Fatal(err)
	}
	opt := fuzzBuild(src)
	for _, f := range opt.Funcs {
		transform(f)
	}
	for i, rf := range ref.Funcs {
		of := opt.Funcs[i]
		for _, row := range fuzzRows(len(rf.Params)) {
			want, werr := Exec(rf, row, ExecOptions{Program: ref, MaxSteps: 1 << 14})
			got, gerr := Exec(of, row, ExecOptions{Program: opt, MaxSteps: 1 << 14})
			if errors.Is(werr, ErrSteps) || errors.Is(gerr, ErrSteps) {
				continue
			}
			if (werr == nil) != (gerr == nil) {
				t.Fatalf("%s(%v): reference err = %v, transformed err = %v", rf.Name, row, werr, gerr)
			}
			if werr != nil {
				if werr.Error() != gerr.Error() {
					t.Fatalf("%s(%v): trap diverges: reference %v, transformed %v", rf.Name, row, werr, gerr)
				}
				continue
			}
			if got.Ret != want.Ret || got.Returned != want.Returned {
				t.Fatalf("%s(%v): transformed = (%d, %v), reference = (%d, %v)",
					rf.Name, row, got.Ret, got.Returned, want.Ret, want.Returned)
			}
		}
	}
}

// FuzzSCCPDifferential pins SCCP's first contract clause: every
// transmuted value is the constant the concrete evaluator computes, so
// execution is unchanged on all inputs — including signed-overflow
// operands (which must not fold when UB fires) and loop-carried
// constants (which must fold to the value every iteration computes).
func FuzzSCCPDifferential(f *testing.F) {
	seeds := []string{
		`int f(int a) { int k = 3; if (k < 5) return a; return -a; }`,
		`int f(int n) { int m = 0; int i = 0; do { m = m & 7; i = i + 1; } while (i < n); return m; }`,
		`int f(void) { int x = 2147483647; return x + 1; }`,
		`int f(int a) { int x = 6 * 7; if (x == 42) return a + x; return 0; }`,
		`int f(int a, int b) { int k = 1; if (k) return a & b; return a | b; }`,
		`int f(int n) { int s = 0; for (int i = 0; i < n; i++) s = s + (4 / 2); return s; }`,
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		if len(src) > 4<<10 {
			return
		}
		fuzzExecDiff(t, src, func(fn *Func) {
			dom := ComputeDom(fn)
			PromoteAllocas(fn, dom)
			SCCP(fn)
		})
	})
}

// FuzzBuildPromotionDifferential pins SSA construction: Build, which
// promotes the slots of the locals whose address is never taken, must
// compute what the build that leaves every slot in memory computes,
// on every probed row. Two differences are not miscompiles and are
// skipped: a promoted read of a local no store reaches is an opaque
// uninit value where memory reads 0, and the promoted build lays out
// fewer slots, so a result that depends on where memory lies differs.
// A row is address-dependent when the in-memory build computes it
// differently with every heap allocation moved (spaceHeap).
func FuzzBuildPromotionDifferential(f *testing.F) {
	seeds := []string{
		`int f(int n) { int x = 5; int *p; if (n) x = 9; p = &x; return *p; }`,
		`int f(int n) { int x = 0; int *p; while (n > 0) { x = x + 1; p = &x; n = n - 1; } return x; }`,
		`int f(int x, int c) { int *p; if (c) c = c + 1; p = &x; return *p; }`,
		`int f(int a, int b) { int w = a * 3 + b; int acc = w + a; int *p = &acc; int r = 0; if (a > b) { int t = *p; r = (t ^ a) & (t | 5); } else { int t = *p; r = t | 1; } return (r ^ *p) + w; }`,
		`int f(int a) { int k = 3; if (k < 5) return a; return -a; }`,
		`int f(int n) { int m = 0; int i = 0; do { m = m & 7; i = i + 1; } while (i < n); return m; }`,
		`int f(void) { int x = 2147483647; return x + 1; }`,
		`int f(int a) { int x = 6 * 7; if (x == 42) return a + x; return 0; }`,
		`int f(int a, int b) { int k = 1; if (k) return a & b; return a | b; }`,
		`int f(int n) { int s = 0; for (int i = 0; i < n; i++) s = s + (4 / 2); return s; }`,
		`int f(int a, int b, int n) { int s = 0; int i = 0; do { s = s ^ i; s = s + a * b; i = i + 1; } while (i < n); return s; }`,
		`int f(int a, int n) { int s = 0; int i = 0; do { s = s + (a << 3); i = i + 1; } while (i < n); return s; }`,
		`int f(int a, int b, int n) { int s = 0; for (int i = 0; i < n; i++) s = s + a * b; return s; }`,
		`int f(int a, int n) { int i = 0; int s = 0; do { s = s + i * a; i = i + 1; } while (i < n); return s; }`,
		`int f(int a, int b) { int x = a & b; int y = 0; if (a) { int t = b ^ 3; y = (a & b) | t; } return x + y; }`,
		`int f(int a, int b) { int x = (a + b) * 3; int y = (a + b) * 3; return x - y; }`,
		`int f(int a, int b) { int x = a * b; int y = 0; if (a) y = a * b; return x + y; }`,
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		if len(src) > 4<<10 {
			return
		}
		promoted := fuzzBuildWith(src, Build)
		if promoted == nil || readsUninit(promoted) {
			return
		}
		mem := fuzzBuildWith(src, buildInMemory)
		spaced := fuzzBuildWith(src, buildInMemory)
		spaceHeap(spaced)
		for i, pf := range promoted.Funcs {
			for _, row := range fuzzRows(len(pf.Params)) {
				want, werr := Exec(mem.Funcs[i], row, ExecOptions{Program: mem, MaxSteps: 1 << 14})
				moved, merr := Exec(spaced.Funcs[i], row, ExecOptions{Program: spaced, MaxSteps: 1 << 14})
				got, gerr := Exec(pf, row, ExecOptions{Program: promoted, MaxSteps: 1 << 14})
				if errors.Is(werr, ErrSteps) || errors.Is(merr, ErrSteps) || errors.Is(gerr, ErrSteps) {
					continue
				}
				if fmt.Sprint(werr) != fmt.Sprint(merr) || want.Ret != moved.Ret {
					continue // address-dependent
				}
				if fmt.Sprint(werr) != fmt.Sprint(gerr) {
					t.Fatalf("%s(%v): in memory err = %v, promoted err = %v", pf.Name, row, werr, gerr)
				}
				if got.Ret != want.Ret || got.Returned != want.Returned {
					t.Fatalf("%s(%v): promoted = (%d, %v), in memory = (%d, %v)\n%s",
						pf.Name, row, got.Ret, got.Returned, want.Ret, want.Returned, pf)
				}
			}
		}
	})
}

// fuzzBuildWith is fuzzBuild with the given build function.
func fuzzBuildWith(src string, build func(*cc.File) (*Program, error)) *Program {
	file, err := cc.Parse("fuzz.c", src)
	if err != nil || cc.Check(file) != nil {
		return nil
	}
	p, err := build(file)
	if err != nil {
		return nil
	}
	return p
}

// readsUninit reports whether a function of p reads a local that no
// store reaches.
func readsUninit(p *Program) bool {
	for _, f := range p.Funcs {
		for _, b := range f.Blocks {
			for _, v := range b.Instrs {
				if v.Op == OpUnknown && strings.HasPrefix(v.AuxName, "uninit.") {
					return true
				}
			}
		}
	}
	return false
}

// spaceHeap moves every heap allocation the evaluator makes for p by
// placing an extra opaque value, which takes a heap slot when first
// run, before each instruction that allocates.
func spaceHeap(p *Program) {
	for _, f := range p.Funcs {
		for _, b := range f.Blocks {
			var out []*Value
			for _, v := range b.Instrs {
				switch v.Op {
				case OpUnknown, OpGlobal, OpString, OpCall:
					out = append(out, &Value{ID: f.NewValueID(), Op: OpUnknown, Width: cc.PointerWidth, Block: b})
				}
				out = append(out, v)
			}
			b.Instrs = out
		}
	}
}
