package core

import (
	"context"
	"testing"
	"time"

	"repro/internal/cc"
	"repro/internal/ir"
)

// FuzzSSADifferential feeds arbitrary C sources through the checker
// with and without the SSA pass stack. This is the fuzzing analogue of
// the corpus-level TestSSAVsLegacyByteIdentity gate: the sweep corpus
// only covers the generator's templates, while the fuzzer explores the
// grammar around them — address-taken locals, duplicate
// subexpressions, overwritten stores, and whatever the mutator
// invents.
//
// The oracle is exactly the contract the passes make, keyed on
// Stats.SSASharpened (ir.PassStats.Sharpening aggregated over
// functions). Value numbering is report-preserving on every program
// (the victim's terms are interned to the representative's, so the
// deduplicated assumption list is unchanged), SCCP folds of
// already-constant operands reproduce the very terms the rewrite layer
// would have built — so when no function sharpened, the reports must
// be byte-identical. The sharpening
// transforms (promotion, store elimination, lattice-only SCCP facts,
// hoisting) are semantics-preserving but precision-sharpening:
// promotion can prove a pointer constant (turning an opaque load into
// a value the solver folds — e.g. `int *p = *&s;` makes *p a provable
// null deref), a lattice fact can fold a loop-carried constant the
// encoder would have widened, and a hoisted condition's ∆ term
// switches from the guarded to the plain form. For those the fuzzer
// requires the SSA run to succeed (the per-pass exec-differential
// fuzzers in internal/ir pin their concrete semantics); the corpus
// gate pins their output on the distribution that matters.
func FuzzSSADifferential(f *testing.F) {
	seeds := []string{
		`int f(int a) { int x = a; int *p = &x; *p = *p + 1; return x + *p; }`,
		`int f(int a, int b) { int x = (a + b) * 3; int y = (a + b) * 3; return x - y; }`,
		`int f(int a) { int x = 1; int *p = &x; *p = 2; *p = a; return *p; }`,
		`int f(int a) { int x; int *p = &x; if (a) *p = 7; return *p; }`,
		`int f(int n) { int s = 0; int *p = &s; for (int i = 0; i < n; i++) *p = *p + i; return *p; }`,
		`int f(char *p, int o) { char *q = p + o; if (q < p) return 0; return 1; }`,
		`int f(int x) { if (x + 100 < x) return 0; return x + 100; }`,
		`int f(int a, int b) { if (b == 0) return 0; int q = a / b; int r = a / b; return q + r; }`,
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		if len(src) > 4<<10 {
			return
		}
		reports := func(ssa bool) (string, Stats, bool) {
			file, err := cc.Parse("fuzz.c", src)
			if err != nil {
				return "", Stats{}, false
			}
			if err := cc.Check(file); err != nil {
				return "", Stats{}, false
			}
			p, err := ir.Build(file)
			if err != nil {
				return "", Stats{}, false
			}
			c := New(Options{
				Timeout: 10 * time.Second, FilterOrigins: true,
				MinUBSets: true, Inline: true, SSA: ssa,
			})
			rs, err := c.CheckProgram(context.Background(), p)
			if err != nil {
				return "", Stats{}, false
			}
			return FormatReports(rs), c.Stats(), true
		}
		legacy, _, ok := reports(false)
		if !ok {
			return // not a checkable program; nothing to compare
		}
		ssa, stats, ok := reports(true)
		if !ok {
			t.Fatal("program checked without SSA but failed with it")
		}
		if stats.SSASharpened == 0 && legacy != ssa {
			t.Fatalf("reports diverge though nothing sharpened:\n--- legacy\n%s--- ssa\n%s", legacy, ssa)
		}
	})
}
