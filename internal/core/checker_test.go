package core

import (
	"context"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/cc"
	"repro/internal/ir"
)

func analyze(t *testing.T, src string, opts Options) []*Report {
	t.Helper()
	reports, err := New(opts).CheckProgram(context.Background(), buildProgram(t, "test.c", src))
	if err != nil {
		t.Fatalf("CheckProgram: %v", err)
	}
	return reports
}

// buildProgram runs the frontend and the IR builder on src.
func buildProgram(t *testing.T, name, src string) *ir.Program {
	t.Helper()
	f, err := cc.Parse(name, src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	if err := cc.Check(f); err != nil {
		t.Fatalf("check: %v", err)
	}
	p, err := ir.Build(f)
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	return p
}

func testOpts() Options {
	return Options{
		Timeout:       10 * time.Second,
		FilterOrigins: true,
		MinUBSets:     true,
		Inline:        true,
	}
}

func wantReportWithUB(t *testing.T, reports []*Report, kind UBKind) *Report {
	t.Helper()
	for _, r := range reports {
		if r.HasUB(kind) {
			return r
		}
	}
	t.Fatalf("no report with UB kind %q; got:\n%s", kind, FormatReports(reports))
	return nil
}

// TestFig1PointerOverflowCheck is the paper's opening example: the
// second check in Figure 1 is unstable because an overflowed pointer
// is undefined, so gcc deletes it.
func TestFig1PointerOverflowCheck(t *testing.T) {
	reports := analyze(t, `
int parse(char *buf, char *buf_end, unsigned int len) {
	if (buf + len >= buf_end)
		return -1; /* len too large */
	if (buf + len < buf)
		return -1; /* overflow */
	return 0;
}
`, testOpts())
	r := wantReportWithUB(t, reports, UBPointerOverflow)
	if r.Pos.Line != 6 && r.Pos.Line != 7 {
		t.Errorf("report at line %d, want the overflow check (6-7)", r.Pos.Line)
	}
}

// TestFig2NullCheckAfterDeref is CVE-2009-1897: tun->sk dereferences
// before the null check, making the check unstable (elimination).
func TestFig2NullCheckAfterDeref(t *testing.T) {
	reports := analyze(t, `
struct sock { int fd; };
struct tun_struct { struct sock *sk; };
int poll(struct tun_struct *tun) {
	struct sock *sk = tun->sk;
	if (!tun)
		return -22; /* POLLERR */
	return sk->fd;
}
`, testOpts())
	r := wantReportWithUB(t, reports, UBNullDeref)
	if len(r.UBConds) != 1 {
		t.Errorf("minimal UB set size %d, want 1: %v", len(r.UBConds), r.UBConds)
	}
	// The dereference is at line 5.
	if r.UBConds[0].Pos.Line != 5 {
		t.Errorf("UB condition at line %d, want 5", r.UBConds[0].Pos.Line)
	}
}

// TestSignedAddOverflowCheck is Fig. 4 column 3: x + 100 < x with
// signed x folds to false under the no-overflow assumption.
func TestSignedAddOverflowCheck(t *testing.T) {
	reports := analyze(t, `
int f(int x) {
	if (x + 100 < x)
		return 1; /* overflow happened */
	return 0;
}
`, testOpts())
	r := wantReportWithUB(t, reports, UBSignedOverflow)
	if r.Algo == AlgoElimination {
		// Either the then-block is eliminated or the condition is
		// simplified; both identify the same unstable code.
		return
	}
	if r.Simplified != "false" && r.Simplified != "x < 0" {
		t.Errorf("unexpected simplification %q", r.Simplified)
	}
}

// TestPositiveSignedCheck is Fig. 4 column 4: x+ + 100 < 0 where x is
// known positive needs reasoning from the guard.
func TestPositiveSignedCheck(t *testing.T) {
	reports := analyze(t, `
int f(int x) {
	if (x > 0) {
		if (x + 100 < 0)
			return 1;
	}
	return 0;
}
`, testOpts())
	wantReportWithUB(t, reports, UBSignedOverflow)
}

// TestOversizedShiftCheck is Fig. 4 column 5 / the ext4 patch: the
// !(1 << x) test for an oversized shift is itself unstable.
func TestOversizedShiftCheck(t *testing.T) {
	reports := analyze(t, `
int f(int x) {
	if (!(1 << x))
		return -1; /* x too large */
	return 0;
}
`, testOpts())
	wantReportWithUB(t, reports, UBOversizedShift)
}

// TestAbsCheck is Fig. 4 column 6 / the PHP case: abs(x) < 0 becomes
// dead once abs is assumed not to overflow.
func TestAbsCheck(t *testing.T) {
	reports := analyze(t, `
int f(int x) {
	if (abs(x) < 0)
		return -1; /* INT_MIN */
	return 0;
}
`, testOpts())
	wantReportWithUB(t, reports, UBAbsOverflow)
}

// TestFFmpegAlgebraOracle is Fig. 12 / §6.2.2: data + len < data with
// signed len is not always-false, but simplifies to len < 0 under the
// no-pointer-overflow assumption; only the algebra oracle catches it.
func TestFFmpegAlgebraOracle(t *testing.T) {
	reports := analyze(t, `
int parse(char *data, char *data_end, int len) {
	if (data + len >= data_end)
		return -1;
	if (data + len < data)
		return -1;
	return 0;
}
`, testOpts())
	var algebra *Report
	for _, r := range reports {
		if r.Algo == AlgoSimplifyAlgebra {
			algebra = r
		}
	}
	if algebra == nil {
		t.Fatalf("algebra oracle produced nothing:\n%s", FormatReports(reports))
	}
	if !algebra.HasUB(UBPointerOverflow) {
		t.Errorf("algebra report lacks pointer overflow: %v", algebra.UBConds)
	}
}

// TestPostgresDivisionCheck is Fig. 10: the post-division overflow
// check is unstable because the division's own UB condition implies
// the check is false.
func TestPostgresDivisionCheck(t *testing.T) {
	reports := analyze(t, `
long divide(long arg1, long arg2) {
	long result;
	if (arg2 == 0)
		return -1;
	result = arg1 / arg2;
	if (arg2 == -1 && arg1 < 0 && result <= 0)
		return -1; /* overflow check: unstable */
	return result;
}
`, testOpts())
	wantReportWithUB(t, reports, UBDivByZero)
}

// TestPostgresNegationTimeBomb is Fig. 14: arg1 != 0 && (-arg1 < 0) ==
// (arg1 < 0) is unstable via the negation's signed-overflow UB.
func TestPostgresNegationTimeBomb(t *testing.T) {
	reports := analyze(t, `
int check_min(long arg1) {
	if (arg1 != 0 && ((-arg1 < 0) == (arg1 < 0)))
		return 1; /* thinks arg1 == INT64_MIN */
	return 0;
}
`, testOpts())
	wantReportWithUB(t, reports, UBSignedOverflow)
}

// TestPlan9PdecCheck is Fig. 13: within k < 0, the check -k >= 0 is
// unstable (gcc folds it to true).
func TestPlan9PdecCheck(t *testing.T) {
	reports := analyze(t, `
int pdec(int k) {
	if (k < 0) {
		if (-k >= 0)
			return 1; /* print normally */
		return 2; /* INT_MIN path */
	}
	return 0;
}
`, testOpts())
	wantReportWithUB(t, reports, UBSignedOverflow)
}

// TestLinuxStrchrCheck is Fig. 11: !nodep where nodep = strchr(..)+1
// is unstable under no-pointer-overflow.
func TestLinuxStrchrCheck(t *testing.T) {
	reports := analyze(t, `
long parse_addr(char *buf) {
	char *nodep = strchr(buf, '.') + 1;
	if (!nodep)
		return -5; /* EIO */
	return simple_strtoul(nodep, NULL, 10);
}
`, testOpts())
	wantReportWithUB(t, reports, UBPointerOverflow)
}

// TestRedundantNullCheck is Fig. 15: the c->trans dereference makes
// the later if (c) unstable; STACK reports it (classification as
// redundant is the corpus's ground truth, §6.2.4).
func TestRedundantNullCheck(t *testing.T) {
	reports := analyze(t, `
struct p9_trans { int x; };
struct p9_client { struct p9_trans *trans; int status; };
void disconnect(struct p9_client *c) {
	struct p9_trans *rdma = c->trans;
	if (c)
		c->status = 2; /* Disconnected */
}
`, testOpts())
	wantReportWithUB(t, reports, UBNullDeref)
}

// TestStableCodeCleanPrograms: correct idiomatic checks must produce
// no reports (precision, §6.3).
func TestStableCodeCleanPrograms(t *testing.T) {
	clean := []string{
		// Null check before dereference: stable.
		`
struct s { int x; };
int f(struct s *p) {
	if (!p)
		return -1;
	return p->x;
}
`,
		// Overflow check before the addition, in the unsigned domain.
		`
int f(unsigned int x) {
	if (x > 4294967295U - 100)
		return -1;
	return (int)(x + 100);
}
`,
		// Division guarded against both zero and INT_MIN/-1.
		`
long f(long a, long b) {
	if (b == 0)
		return -1;
	if (a == (-9223372036854775807L - 1) && b == -1)
		return -1;
	return a / b;
}
`,
		// Ordinary control flow with no UB at all.
		`
int f(int n) {
	int s = 0;
	for (int i = 0; i < n; i++)
		s += i % 7;
	return s;
}
`,
		// Shift guarded by a correct range check.
		`
int f(int x) {
	if (x < 0 || x >= 32)
		return -1;
	return 1 << x;
}
`,
	}
	for i, src := range clean {
		reports := analyze(t, src, testOpts())
		filtered := reports[:0]
		for _, r := range reports {
			filtered = append(filtered, r)
		}
		if len(filtered) != 0 {
			t.Errorf("clean program %d got reports:\n%s", i, FormatReports(reports))
		}
	}
}

// TestMacroOriginSuppression is the §4.2 IS_A example: the null check
// comes from a macro, so the report must be suppressed by default and
// visible with FilterOrigins off.
func TestMacroOriginSuppression(t *testing.T) {
	src := `
#define TAG_A 1
#define IS_A(p) (p != NULL && p->tag == TAG_A)
struct node { int tag; };
int f(struct node *p) {
	p->tag = 0;
	if (IS_A(p))
		return 1;
	return 0;
}
`
	withFilter := analyze(t, src, testOpts())
	for _, r := range withFilter {
		if r.HasUB(UBNullDeref) {
			t.Errorf("macro-origin report not suppressed: %v", r)
		}
	}
	opts := testOpts()
	opts.FilterOrigins = false
	withoutFilter := analyze(t, src, opts)
	found := false
	for _, r := range withoutFilter {
		if r.HasUB(UBNullDeref) {
			found = true
		}
	}
	if !found {
		t.Errorf("expected the unstable macro check to appear with FilterOrigins=false:\n%s",
			FormatReports(withoutFilter))
	}
}

// TestInlineOriginSuppression: the same unstable pattern via an
// inlined helper is compiler-generated at the call site and must be
// suppressed (paper §4.2).
func TestInlineOriginSuppression(t *testing.T) {
	src := `
struct node { int tag; };
static int is_valid(struct node *p) {
	return p != NULL;
}
int f(struct node *p) {
	p->tag = 0;
	if (is_valid(p))
		return 1;
	return 0;
}
`
	reports := analyze(t, src, testOpts())
	for _, r := range reports {
		if r.HasUB(UBNullDeref) && r.Origin == "" {
			t.Errorf("inline-origin report not suppressed: %v", r)
		}
	}
}

// TestUseAfterFree covers the Fig. 3 library rows: a load from p after
// free(p) has the alias UB condition, making a subsequent null-style
// check unstable.
func TestUseAfterFree(t *testing.T) {
	reports := analyze(t, `
int f(int *p) {
	free(p);
	if (*p == 0)
		return 1;
	return 0;
}
`, testOpts())
	wantReportWithUB(t, reports, UBUseAfterFree)
}

// TestMemcpyOverlap: copying a buffer onto itself is UB; a dominating
// memcpy(p, p, n) with n > 0 makes later n-dependent checks unstable.
func TestMemcpyOverlap(t *testing.T) {
	reports := analyze(t, `
void f(char *dst, char *src, unsigned long n) {
	memcpy(dst, src, n);
	if (dst == src && n > 0)
		return; /* unstable: overlap UB implies this is false */
}
`, testOpts())
	wantReportWithUB(t, reports, UBMemcpyOverlap)
}

// TestBufferOverflowIndex: a constant-size array with a dominating
// store at index i makes a later bounds check on i unstable.
func TestBufferOverflowIndex(t *testing.T) {
	reports := analyze(t, `
int f(int i) {
	int arr[8];
	arr[i] = 1;
	if (i < 0 || i >= 8)
		return -1; /* too late: unstable */
	return arr[i];
}
`, testOpts())
	wantReportWithUB(t, reports, UBBufferOverflow)
}

// TestDivByZeroCheckAfterDivision: checking the divisor after
// dividing is unstable.
func TestDivByZeroCheckAfterDivision(t *testing.T) {
	reports := analyze(t, `
int f(int a, int b) {
	int q = a / b;
	if (b == 0)
		return -1;
	return q;
}
`, testOpts())
	wantReportWithUB(t, reports, UBDivByZero)
}

// TestMinimalUBSetMultiple: two independent dereferences both make the
// check unstable; Fig. 8's greedy masking keeps only conditions whose
// removal makes the query satisfiable. With two sufficient conditions,
// masking either leaves the other, so the "minimal" set by the paper's
// algorithm is empty-safe — our implementation falls back to the core.
func TestMinimalUBSetReported(t *testing.T) {
	reports := analyze(t, `
struct s { int a; };
int f(struct s *p) {
	int v = p->a;
	if (!p)
		return -1;
	return v;
}
`, testOpts())
	r := wantReportWithUB(t, reports, UBNullDeref)
	if len(r.UBConds) == 0 {
		t.Errorf("empty UB set in report")
	}
}

func TestStatsAccounting(t *testing.T) {
	f, err := cc.Parse("t.c", `
int f(int x) {
	if (x + 1 < x)
		return 1;
	return 0;
}
`)
	if err != nil {
		t.Fatal(err)
	}
	if err := cc.Check(f); err != nil {
		t.Fatal(err)
	}
	p, err := ir.Build(f)
	if err != nil {
		t.Fatal(err)
	}
	c := New(testOpts())
	if _, err := c.CheckProgram(context.Background(), p); err != nil {
		t.Fatal(err)
	}
	st := c.Stats()
	if st.Functions != 1 || st.Queries == 0 {
		t.Errorf("stats: %+v", st)
	}
}

// TestStatsAddSumsEveryField fills every Stats field by reflection, so
// a new counter is covered without a test edit: Add must sum each one,
// and each must carry the json, prom, and help tags the public
// encodings are derived from.
func TestStatsAddSumsEveryField(t *testing.T) {
	var a, b Stats
	va, vb := reflect.ValueOf(&a).Elem(), reflect.ValueOf(&b).Elem()
	for i := 0; i < va.NumField(); i++ {
		va.Field(i).SetInt(int64(i + 1))
		vb.Field(i).SetInt(int64(100 * (i + 1)))
	}
	a.Add(b)
	for i := 0; i < va.NumField(); i++ {
		f := va.Type().Field(i)
		if got, want := va.Field(i).Int(), int64(101*(i+1)); got != want {
			t.Errorf("Add: %s = %d, want %d", f.Name, got, want)
		}
		for _, tag := range []string{"json", "prom", "help"} {
			if f.Tag.Get(tag) == "" {
				t.Errorf("Stats.%s has no %s tag", f.Name, tag)
			}
		}
	}
}

func TestCountHelpers(t *testing.T) {
	reports := []*Report{
		{Algo: AlgoElimination, UBConds: []UBRef{{Kind: UBNullDeref}}},
		{Algo: AlgoSimplifyBool, UBConds: []UBRef{{Kind: UBNullDeref}, {Kind: UBSignedOverflow}}},
		{Algo: AlgoSimplifyBool, UBConds: []UBRef{{Kind: UBPointerOverflow}}},
	}
	byKind := CountByUBKind(reports)
	if byKind[UBNullDeref] != 2 || byKind[UBSignedOverflow] != 1 {
		t.Errorf("CountByUBKind: %v", byKind)
	}
	byAlgo := CountByAlgo(reports)
	if byAlgo[AlgoSimplifyBool] != 2 {
		t.Errorf("CountByAlgo: %v", byAlgo)
	}
	hist := MinSetSizeHistogram(reports)
	if hist[1] != 2 || hist[2] != 1 {
		t.Errorf("histogram: %v", hist)
	}
}

func TestClassify(t *testing.T) {
	div := &Report{UBConds: []UBRef{{Kind: UBDivByZero}}}
	if Classify(div, nil) != CategoryNonOptimization {
		t.Errorf("division UB should be non-optimization")
	}
	ptr := &Report{Algo: AlgoSimplifyBool, UBConds: []UBRef{{Kind: UBPointerOverflow}}}
	discardsPtr := func(k UBKind) bool { return k == UBPointerOverflow }
	if Classify(ptr, discardsPtr) != CategoryUrgent {
		t.Errorf("discarded-by-compiler should be urgent")
	}
	discardsNone := func(k UBKind) bool { return false }
	if Classify(ptr, discardsNone) != CategoryTimeBomb {
		t.Errorf("not-yet-discarded should be a time bomb")
	}
}

// TestFragmentDecisions pins what each algorithm decides and reports,
// down to the number of solver queries of the whole check: a report
// with its minimal UB set, the same report with MinUBSets off (no
// masking queries), and its FilterOrigins drop when a macro wrote the
// fragment. It also pins the algebra oracle with the sum on either
// side of the comparison, the boolean oracle answering on its second
// proposal (false), and elimination reporting only the frontier of an
// eliminated region.
func TestFragmentDecisions(t *testing.T) {
	const (
		// Each addition may overflow; b < x needs both assumed away.
		twoAdds = `
int f(int x) {
	int a = x + 1;
	int b = a + 1;
	if (b < x)
		return -1;
	return b;
}
`
		twoAddsValue = `
int f(int x) {
	int a = x + 1;
	int b = a + 1;
	return b < x;
}
`
		sumLeft = `
int f(char *p, int n) {
	return p + n < p;
}
`
		bail = `
#define BAIL(p) if (!(p)) return -1
int f(int *p) {
	int v = *p;
	BAIL(p);
	return v;
}
`
		wraps = `
#define WRAPS(x) ((x) + 1 < (x))
int f(int x) {
	return WRAPS(x);
}
`
		past = `
#define PAST(p, n) ((p) + (n) < (p))
int f(char *p, int n) {
	return PAST(p, n);
}
`
	)
	noMinSets := func(o *Options) { o.MinUBSets = false }
	noFilter := func(o *Options) { o.FilterOrigins = false }
	cases := []struct {
		name    string
		src     string
		opts    func(*Options)
		want    string // each report's String(), then its origin, if any
		queries int64
	}{
		{name: "elimination/minimal", src: twoAdds, queries: 8, want: `test.c:6:11: unstable code in f [elimination]
  due to undefined behavior:
    signed integer overflow at test.c:3:12
    signed integer overflow at test.c:4:12
`},
		{name: "elimination/no-min-sets", src: twoAdds, opts: noMinSets, queries: 6, want: `test.c:6:11: unstable code in f [elimination]
  due to undefined behavior:
    signed integer overflow at test.c:3:12
    signed integer overflow at test.c:4:12
`},
		{name: "elimination/downstream", queries: 12, src: `
int f(int x, int y) {
	int r = 0;
	if (x + 1 < x) {
		r = 1;
		if (y)
			r = 2;
	}
	return r;
}
`, want: `test.c:5:7: unstable code in f [elimination]
  due to undefined behavior:
    signed integer overflow at test.c:4:8
`},
		{name: "elimination/filtered", src: bail, queries: 7},
		{name: "elimination/unfiltered", src: bail, opts: noFilter, queries: 7, want: `test.c:5:2: unstable code in f [elimination]
  due to undefined behavior:
    null pointer dereference at test.c:4:10
  origin: BAIL
`},
		{name: "bool/first-proposal", queries: 3, src: `
int f(int *p, int x) {
	int v = *p;
	int w = x + 1;
	return (p != 0) + v + w;
}
`, want: `test.c:5:12: unstable code in f [simplification (boolean oracle)] — simplifies to true
  due to undefined behavior:
    null pointer dereference at test.c:3:10
`},
		{name: "bool/second-proposal-minimal", src: twoAddsValue, queries: 6, want: `test.c:5:11: unstable code in f [simplification (boolean oracle)] — simplifies to false
  due to undefined behavior:
    signed integer overflow at test.c:3:12
    signed integer overflow at test.c:4:12
`},
		{name: "bool/no-min-sets", src: twoAddsValue, opts: noMinSets, queries: 4, want: `test.c:5:11: unstable code in f [simplification (boolean oracle)] — simplifies to false
  due to undefined behavior:
    signed integer overflow at test.c:3:12
    signed integer overflow at test.c:4:12
`},
		// Dropped after masking, the condition is still decided: the
		// algebra oracle would report at the same origin and be dropped
		// too, so it is not asked. As many queries as when it is kept.
		{name: "bool/filtered", src: wraps, queries: 5},
		{name: "bool/unfiltered", src: wraps, opts: noFilter, queries: 5, want: `test.c:4:9: unstable code in f [simplification (boolean oracle)] — simplifies to false
  due to undefined behavior:
    signed integer overflow at test.c:4:9
  origin: WRAPS
`},
		{name: "algebra/sum-left", src: sumLeft, queries: 7, want: `test.c:3:15: unstable code in f [simplification (algebra oracle)] — simplifies to n < 0
  due to undefined behavior:
    pointer overflow at test.c:3:11
`},
		{name: "algebra/sum-right", queries: 7, src: `
int f(char *p, int n) {
	return p > p + n;
}
`, want: `test.c:3:11: unstable code in f [simplification (algebra oracle)] — simplifies to n < 0
  due to undefined behavior:
    pointer overflow at test.c:3:15
`},
		{name: "algebra/sum-right-mirrored", queries: 7, src: `
int f(char *p, int n) {
	return p < p + n;
}
`, want: `test.c:3:11: unstable code in f [simplification (algebra oracle)] — simplifies to 0 < n
  due to undefined behavior:
    pointer overflow at test.c:3:15
`},
		{name: "algebra/no-min-sets", src: sumLeft, opts: noMinSets, queries: 6, want: `test.c:3:15: unstable code in f [simplification (algebra oracle)] — simplifies to n < 0
  due to undefined behavior:
    pointer overflow at test.c:3:11
`},
		{name: "algebra/filtered", src: past, queries: 7},
		{name: "algebra/unfiltered", src: past, opts: noFilter, queries: 7, want: `test.c:4:9: unstable code in f [simplification (algebra oracle)] — simplifies to n < 0
  due to undefined behavior:
    pointer overflow at test.c:4:9
  origin: PAST
`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			opts := DefaultOptions
			if tc.opts != nil {
				tc.opts(&opts)
			}
			c := New(opts)
			reports, err := c.CheckProgram(context.Background(), buildProgram(t, "test.c", tc.src))
			if err != nil {
				t.Fatal(err)
			}
			var got strings.Builder
			for _, r := range reports {
				got.WriteString(r.String() + "\n")
				if r.Origin != "" {
					got.WriteString("  origin: " + r.Origin + "\n")
				}
			}
			if got.String() != tc.want {
				t.Errorf("reports:\n%s\nwant:\n%s", got.String(), tc.want)
			}
			if q := c.Stats().Queries; q != tc.queries {
				t.Errorf("%d solver queries, want %d", q, tc.queries)
			}
		})
	}
}
