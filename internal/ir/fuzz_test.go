package ir

import (
	"errors"
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
func fuzzBuild(src string) *Program {
	file, err := cc.Parse("fuzz.c", src)
	if err != nil {
		return nil
	}
	if err := cc.Check(file); err != nil {
		return nil
	}
	p, err := Build(file)
	if err != nil {
		return nil
	}
	return p
}

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

// FuzzHoistDifferential pins loop-invariant UB hoisting's contract: a
// hoisted instruction runs iff it ran before (the header executes
// whenever the preheader does) and computes the same value every
// iteration, so execution — including which traps fire — is unchanged.
func FuzzHoistDifferential(f *testing.F) {
	seeds := []string{
		`int f(int a, int b, int n) { int s = 0; int i = 0; do { s = s ^ i; s = s + a * b; i = i + 1; } while (i < n); return s; }`,
		`int f(int a, int n) { int s = 0; int i = 0; do { s = s + (a << 3); i = i + 1; } while (i < n); return s; }`,
		`int f(int a, int b, int n) { int s = 0; for (int i = 0; i < n; i++) s = s + a * b; return s; }`,
		`int f(int a, int n) { int i = 0; int s = 0; do { s = s + i * a; i = i + 1; } while (i < n); return s; }`,
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
			HoistLoopInvariantUB(fn, dom)
		})
	})
}

// FuzzGVNDifferential pins value numbering's semantic half: merging a
// value into a structurally identical, same-origin representative and
// redirecting its uses cannot change what the function computes. (The
// report-preserving half — identical checker output — is
// core.FuzzSSADifferential's strict gate.)
func FuzzGVNDifferential(f *testing.F) {
	seeds := []string{
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
		fuzzExecDiff(t, src, func(fn *Func) {
			dom := ComputeDom(fn)
			PromoteAllocas(fn, dom)
			GVN(fn, dom)
		})
	})
}
