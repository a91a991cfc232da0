package ir

import (
	"fmt"
	"regexp"
	"strings"
	"testing"
)

// checkIDs reports the first break of the invariant that the SSA
// passes index their state by (see Func.NewValueID): every value
// reachable from f — parameters, instructions, terminators, and every
// non-nil operand, transitively — has an ID in [1, f.nextID] that no
// other value has, every listed value's Block is the block listing
// it, and every Block.ID is the block's index in f.Blocks.
func checkIDs(f *Func) error {
	for i, b := range f.Blocks {
		if b.ID != i {
			return fmt.Errorf("%s: block at index %d has ID %d", f.Name, i, b.ID)
		}
	}
	owner := make(map[int]*Value)
	var work []*Value
	claim := func(v *Value) error {
		if v.ID < 1 || v.ID > f.nextID {
			return fmt.Errorf("%s: %s value has ID %d outside [1, %d]", f.Name, v.Op, v.ID, f.nextID)
		}
		if o, ok := owner[v.ID]; ok {
			if o != v {
				return fmt.Errorf("%s: %s and %s values share ID %d", f.Name, o.Op, v.Op, v.ID)
			}
			return nil
		}
		owner[v.ID] = v
		work = append(work, v)
		return nil
	}
	for _, p := range f.Params {
		if err := claim(p); err != nil {
			return err
		}
	}
	for _, b := range f.Blocks {
		for v := range b.All() {
			if v.Block != b {
				return fmt.Errorf("%s: v%d is listed in b%d but names another block", f.Name, v.ID, b.ID)
			}
			if err := claim(v); err != nil {
				return err
			}
		}
	}
	for len(work) > 0 {
		v := work[len(work)-1]
		work = work[:len(work)-1]
		for _, a := range v.Args {
			if a == nil {
				continue
			}
			if err := claim(a); err != nil {
				return fmt.Errorf("operand of v%d: %w", v.ID, err)
			}
		}
	}
	return nil
}

// ssaPassSteps is RunSSAPasses split into its passes, in its order, so
// that a test can check the IR between passes.
// TestCheckedSSAPassesMatchRunSSAPasses pins it to RunSSAPasses.
var ssaPassSteps = []struct {
	name string
	run  func(*Func, *DomTree)
}{
	{"mem2reg", func(f *Func, dom *DomTree) { PromoteAllocas(f, dom) }},
	{"sccp", func(f *Func, _ *DomTree) { SCCP(f) }},
	{"dse", func(f *Func, _ *DomTree) { DSE(f) }},
	{"licm", func(f *Func, dom *DomTree) { HoistLoopInvariantUB(f, dom) }},
}

// checkedSSAPasses runs the SSA pass stack over f as the checker does,
// checking the ID invariant before the first pass and after each one.
func checkedSSAPasses(f *Func) error {
	if err := checkIDs(f); err != nil {
		return fmt.Errorf("before the SSA passes: %w", err)
	}
	dom := ComputeDom(f)
	for _, p := range ssaPassSteps {
		p.run(f, dom)
		if err := checkIDs(f); err != nil {
			return fmt.Errorf("after %s: %w", p.name, err)
		}
	}
	return nil
}

// checkIDsThroughPipeline takes a freshly built p through the
// checker's IR stages — inlining, then the SSA passes — and checks the
// ID invariant on entry and after each stage and pass.
func checkIDsThroughPipeline(p *Program) error {
	for _, f := range p.Funcs {
		if err := checkIDs(f); err != nil {
			return fmt.Errorf("after Build: %w", err)
		}
	}
	InlineProgram(p, DefaultInlineOptions)
	for _, f := range p.Funcs {
		if err := checkIDs(f); err != nil {
			return fmt.Errorf("after inlining: %w", err)
		}
	}
	for _, f := range p.Funcs {
		if err := checkedSSAPasses(f); err != nil {
			return err
		}
	}
	return nil
}

const idsSource = `
struct node { int v; struct node *next; };
static int helper(int a, int b) { if (a > b) return a - b; return b - a; }
static int twice(int x) { int y = x; int *p = &y; *p = *p + x; return *p; }
int f(int a, int b, int n) {
	int s = 0;
	int k = 3;
	for (int i = 0; i < n; i++) {
		s = s + helper(a, i) * (a + b);
		if (k < 5) s = s ^ (a + b);
	}
	do { s = s + a * b; n = n - 1; } while (n > 0);
	return twice(s) + helper(s, b);
}
int g(struct node *p) { if (!p) return 0; return p->v + g(p->next); }
`

func TestIDsHoldThroughPipeline(t *testing.T) {
	if err := checkIDsThroughPipeline(build(t, idsSource)); err != nil {
		t.Fatal(err)
	}
}

// TestCheckIDsCatchesPlantedBreaks plants each kind of break the check
// looks for and requires it to be reported.
func TestCheckIDsCatchesPlantedBreaks(t *testing.T) {
	plants := []struct {
		name  string
		plant func(f, other *Func)
		want  string
	}{
		{"duplicate instruction ID", func(f, _ *Func) {
			f.Entry.Instrs[1].ID = f.Entry.Instrs[0].ID
		}, "share ID"},
		{"ID past the last allocated", func(f, _ *Func) {
			f.Entry.Instrs[0].ID = f.nextID + 1
		}, "outside"},
		{"zero ID", func(f, _ *Func) {
			f.Entry.Term.ID = 0
		}, "outside"},
		{"block ID not its index", func(f, _ *Func) {
			f.Blocks[1].ID = 0
		}, "block at index 1"},
		{"terminator naming another block", func(f, _ *Func) {
			f.Entry.Term.Block = f.Blocks[1]
		}, "names another block"},
		// An operand that belongs to another function, as the inliner
		// would leave if it fell back to the callee's own value: its ID
		// comes from the other function's sequence.
		{"operand from another function", func(f, other *Func) {
			f.Entry.Term.Args = []*Value{other.Entry.Instrs[0]}
		}, "share ID"},
	}
	for _, pl := range plants {
		t.Run(strings.ReplaceAll(pl.name, " ", "_"), func(t *testing.T) {
			p := build(t, idsSource)
			f, other := fn(t, p, "f"), fn(t, p, "g")
			if err := checkIDs(f); err != nil {
				t.Fatalf("before planting: %v", err)
			}
			pl.plant(f, other)
			err := checkIDs(f)
			if err == nil || !strings.Contains(err.Error(), pl.want) {
				t.Fatalf("checkIDs = %v, want an error containing %q", err, pl.want)
			}
		})
	}
}

// TestCheckedSSAPassesMatchRunSSAPasses pins ssaPassSteps to
// RunSSAPasses: both must leave every function printing the same, up
// to value numbering (two builds of one source may number phis
// differently).
func TestCheckedSSAPassesMatchRunSSAPasses(t *testing.T) {
	a, b := build(t, idsSource), build(t, idsSource)
	InlineProgram(a, DefaultInlineOptions)
	InlineProgram(b, DefaultInlineOptions)
	for i, f := range a.Funcs {
		if err := checkedSSAPasses(f); err != nil {
			t.Fatal(err)
		}
		g := b.Funcs[i]
		RunSSAPasses(g, ComputeDom(g))
		if fs, gs := renumbered(f), renumbered(g); fs != gs {
			t.Fatalf("%s: pass steps and RunSSAPasses disagree:\n%s\nvs\n%s", f.Name, fs, gs)
		}
	}
}

// renumbered prints f with its values renamed in order of first
// appearance.
func renumbered(f *Func) string {
	names := map[string]string{}
	return valueName.ReplaceAllStringFunc(f.String(), func(v string) string {
		if n, ok := names[v]; ok {
			return n
		}
		names[v] = fmt.Sprintf("v%d", len(names)+1)
		return names[v]
	})
}

var valueName = regexp.MustCompile(`\bv[0-9]+\b`)
