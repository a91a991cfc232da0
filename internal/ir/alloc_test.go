package ir

import (
	"fmt"
	"slices"
	"strings"
	"testing"
)

// straightLine returns the source of f, one block of about n values:
// a chain of statements over two parameters, each with a repeated
// subexpression and a constant sum for SCCP to fold.
func straightLine(n int) string {
	var b strings.Builder
	b.WriteString("unsigned f(unsigned x, unsigned y) {\n\tunsigned k = 5u;\n\tunsigned h = x;\n")
	for i := 0; i < n/6; i++ {
		fmt.Fprintf(&b, "\th = ((h ^ y) + (h ^ y)) & (k + %du);\n", i)
	}
	b.WriteString("\treturn h;\n}\n")
	return b.String()
}

func numValues(f *Func) int {
	n := 0
	for _, b := range f.Blocks {
		n += len(b.Instrs) + 1
	}
	return n
}

// passAllocs is the allocations per call of pass, each call on a
// fresh build of src's f.
func passAllocs(t *testing.T, src string, pass func(*Func, *DomTree)) (allocs float64, values int) {
	t.Helper()
	const runs = 4
	fs := make([]*Func, runs+1) // AllocsPerRun makes one warm-up call
	doms := make([]*DomTree, runs+1)
	for i := range fs {
		fs[i] = fn(t, build(t, src), "f")
		doms[i] = ComputeDom(fs[i])
	}
	values = numValues(fs[0])
	i := 0
	allocs = testing.AllocsPerRun(runs, func() {
		pass(fs[i], doms[i])
		i++
	})
	return allocs, values
}

// TestSSAPassAllocsDoNotGrowWithValues: SCCP sizes its state once per
// call from the function's ID counts, so a function ten times longer
// costs no more allocations.
func TestSSAPassAllocsDoNotGrowWithValues(t *testing.T) {
	sccp := func(f *Func, _ *DomTree) { SCCP(f) }
	small, n := passAllocs(t, straightLine(200), sccp)
	large, m := passAllocs(t, straightLine(2000), sccp)
	t.Logf("SCCP: %.0f allocs at %d values, %.0f at %d", small, n, large, m)
	if large > small {
		t.Errorf("SCCP: %.0f allocs at %d values, %.0f at %d: allocations grow with the function",
			small, n, large, m)
	}
}

// branchy returns the source of f, a chain of n if statements: about
// 2n blocks.
func branchy(n int) string {
	var b strings.Builder
	b.WriteString("int f(int x, int y) {\n")
	for i := 0; i < n; i++ {
		fmt.Fprintf(&b, "\tif (x < %d) y = y + x;\n", i)
	}
	b.WriteString("\treturn y;\n}\n")
	return b.String()
}

// TestComputeDomAllocsDoNotGrowWithBlocks: ComputeDom keeps its tables
// in slices indexed by Block.ID, sized once, so a function ten times
// longer costs no more allocations.
func TestComputeDomAllocsDoNotGrowWithBlocks(t *testing.T) {
	allocs := func(n int) (float64, int) {
		f := fn(t, build(t, branchy(n)), "f")
		return testing.AllocsPerRun(10, func() { ComputeDom(f) }), len(f.Blocks)
	}
	small, n := allocs(20)
	large, m := allocs(200)
	t.Logf("%.0f allocs at %d blocks, %.0f at %d", small, n, large, m)
	if large > small {
		t.Errorf("%.0f allocs at %d blocks, %.0f at %d: allocations grow with the function", small, n, large, m)
	}
}

func TestBlockAllAllocatesNothing(t *testing.T) {
	f := fn(t, build(t, straightLine(200)), "f")
	sum := 0
	allocs := testing.AllocsPerRun(10, func() {
		for _, b := range f.Blocks {
			for v := range b.All() {
				sum += v.ID
			}
		}
	})
	if allocs != 0 {
		t.Errorf("walking a block with All allocated %.0f times", allocs)
	}
}

// TestDefUseOrder: users come in block order, instructions before the
// terminator, once per operand slot; nil phi operands are skipped.
func TestDefUseOrder(t *testing.T) {
	f := fn(t, build(t, `
int f(int a, int b) {
	int x = a + a;
	if (x < b)
		x = x * b;
	return x + a;
}
`), "f")
	var a *Value
	for v := range f.Entry.All() {
		if v.Op == OpParam && v.AuxName == "a" {
			a = v
		}
	}
	want := []*Value{}
	for _, b := range f.Blocks {
		for v := range b.All() {
			for _, arg := range v.Args {
				if arg == a {
					want = append(want, v)
				}
			}
		}
	}
	du := NewDefUse(f)
	if got := du.Users(a); !slices.Equal(got, want) || len(got) != 3 {
		t.Fatalf("users of a = %v, want %v (x = a + a twice, then x + a)", got, want)
	}
	// A nil operand, as RemoveUnreachableBlocks leaves in a phi, has
	// no entry and does not disturb the other lists.
	ret := f.Blocks[len(f.Blocks)-1].Term
	ret.Args = append(ret.Args, nil)
	if got := NewDefUse(f); got.NumUses() != du.NumUses() || !slices.Equal(got.Users(a), want) {
		t.Fatalf("a nil operand changed the index: %d uses, want %d", got.NumUses(), du.NumUses())
	}
}
