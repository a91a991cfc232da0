package core_test

import (
	"slices"
	"testing"

	"repro/internal/cc"
	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/ir"
)

// TestDeltaMemoIsOnlyACache: the checker's memoized ∆ terms are the
// terms an unmemoized construction builds on the same builder, for
// every block of the Fig. 9 corpus with uptoTerm false and true, and
// the ∆ of each block keeps the same conditions whether the blocks are
// visited in layout order or in reverse.
func TestDeltaMemoIsOnlyACache(t *testing.T) {
	funcs, blocks := 0, 0
	for _, src := range corpus.GenerateFig9() {
		forward, reverse := buildFuncs(t, src), buildFuncs(t, src)
		for i, f := range forward {
			keptFwd, bad := core.DeltaKept(f, core.DefaultOptions, false)
			for _, m := range bad {
				t.Errorf("%s, layout order: %s", src.System, m)
			}
			keptRev, bad := core.DeltaKept(reverse[i], core.DefaultOptions, true)
			for _, m := range bad {
				t.Errorf("%s, reverse order: %s", src.System, m)
			}
			if !slices.EqualFunc(keptFwd, keptRev, func(a, b [2][]int) bool {
				return slices.Equal(a[0], b[0]) && slices.Equal(a[1], b[1])
			}) {
				t.Errorf("%s %s: ∆ keeps %v in layout order, %v in reverse", src.System, f.Name, keptFwd, keptRev)
			}
			funcs++
			blocks += len(f.Blocks)
		}
	}
	if funcs == 0 || blocks == 0 {
		t.Fatal("the corpus produced no functions")
	}
	t.Logf("%d functions, %d blocks", funcs, blocks)
}

// buildFuncs lowers src to IR and inlines it, as the checker's
// default options do.
func buildFuncs(t *testing.T, src corpus.SystemSource) []*ir.Func {
	t.Helper()
	file, err := cc.Parse(src.System+".c", src.Source)
	if err != nil {
		t.Fatal(err)
	}
	if err := cc.Check(file); err != nil {
		t.Fatal(err)
	}
	p, err := ir.Build(file)
	if err != nil {
		t.Fatal(err)
	}
	ir.InlineProgram(p, ir.DefaultInlineOptions)
	return p.Funcs
}
