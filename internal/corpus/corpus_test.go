package corpus

import (
	"context"
	"strings"
	"testing"
	"time"

	"repro/internal/cc"
	"repro/internal/core"
	"repro/internal/ir"
)

func checkSource(t *testing.T, name, src string) []*core.Report {
	t.Helper()
	f, err := cc.Parse(name, src)
	if err != nil {
		t.Fatalf("%s: parse: %v", name, err)
	}
	if err := cc.Check(f); err != nil {
		t.Fatalf("%s: check: %v", name, err)
	}
	p, err := ir.Build(f)
	if err != nil {
		t.Fatalf("%s: build: %v", name, err)
	}
	c := core.New(core.Options{
		Timeout: 10 * time.Second, FilterOrigins: true, MinUBSets: true, Inline: true,
	})
	reports, err := c.CheckProgram(context.Background(), p)
	if err != nil {
		t.Fatalf("%s: CheckProgram: %v", name, err)
	}
	return reports
}

func TestFig9DistributionTotals(t *testing.T) {
	total, byKind := Fig9Totals()
	if total != 160 {
		t.Errorf("corpus total = %d, want 160", total)
	}
	want := map[core.UBKind]int{
		core.UBPointerOverflow: 29, core.UBNullDeref: 44,
		core.UBSignedOverflow: 23, core.UBDivByZero: 7,
		core.UBOversizedShift: 23, core.UBBufferOverflow: 14,
		core.UBAbsOverflow: 1, core.UBMemcpyOverlap: 7,
		core.UBUseAfterFree: 9, core.UBUseAfterRealloc: 3,
	}
	for k, n := range want {
		if byKind[k] != n {
			t.Errorf("%v: corpus has %d, paper column total is %d", k, byKind[k], n)
		}
	}
	if len(Fig9) != 24 {
		t.Errorf("rows = %d, want 24", len(Fig9))
	}
}

func TestFig9RowTotals(t *testing.T) {
	want := map[string]int{
		"Binutils": 8, "e2fsprogs": 3, "FFmpeg+Libav": 21, "FreeType": 3,
		"GRUB": 2, "HiStar": 3, "Kerberos": 11, "libX11": 2,
		"libarchive": 2, "libgcrypt": 2, "Linux kernel": 32, "Mozilla": 3,
		"OpenAFS": 11, "plan9port": 3, "Postgres": 9, "Python": 5,
		"QEMU": 4, "Ruby+Rubinius": 2, "Sane": 8, "uClibc": 2,
		"VLC": 2, "Xen": 3, "Xpdf": 9, "others": 10,
	}
	for _, row := range Fig9 {
		if row.Total() != want[row.System] {
			t.Errorf("%s: row total %d, want %d", row.System, row.Total(), want[row.System])
		}
	}
}

// TestFig9CorpusDetection is the Figure 9 reproduction: STACK must
// detect every planted bug in the generated corpus (the paper's 160
// developer-confirmed bugs), with the right UB kind, and produce no
// reports on the stable filler functions.
func TestFig9CorpusDetection(t *testing.T) {
	sources := GenerateFig9()
	if len(sources) != 24 {
		t.Fatalf("generated %d systems, want 24", len(sources))
	}
	totalDetected := 0
	detectedByKind := map[core.UBKind]int{}
	for _, ss := range sources {
		reports := checkSource(t, sanitize(ss.System)+".c", ss.Source)
		// Group reports by function.
		byFunc := map[string][]*core.Report{}
		for _, r := range reports {
			byFunc[r.Func] = append(byFunc[r.Func], r)
		}
		for _, bug := range ss.Bugs {
			found := false
			for _, r := range byFunc[bug.FuncName] {
				if r.HasUB(bug.Kind) {
					found = true
					break
				}
			}
			if !found {
				t.Errorf("%s: planted %v bug in %s not detected", ss.System, bug.Kind, bug.FuncName)
				continue
			}
			totalDetected++
			detectedByKind[bug.Kind]++
		}
		// Precision: stable fillers must stay clean.
		for fn := range byFunc {
			if strings.Contains(fn, "_f") && !strings.ContainsAny(fn[len(fn)-1:], "0123456789") {
				continue
			}
			planted := false
			for _, bug := range ss.Bugs {
				if bug.FuncName == fn {
					planted = true
				}
			}
			if !planted {
				t.Errorf("%s: false warning in stable function %s:\n%s",
					ss.System, fn, core.FormatReports(byFunc[fn]))
			}
		}
	}
	if totalDetected != 160 {
		t.Errorf("detected %d/160 planted bugs", totalDetected)
	}
	if detectedByKind[core.UBNullDeref] != 44 {
		t.Errorf("null-deref bugs detected: %d, want 44", detectedByKind[core.UBNullDeref])
	}
}

// TestCompletenessSuite reproduces §6.6: 7 of 10 found; the strict
// aliasing, uninitialized-use, and loop-reachability cases missed.
func TestCompletenessSuite(t *testing.T) {
	if len(CompletenessSuite) != 10 {
		t.Fatalf("suite has %d tests, want 10", len(CompletenessSuite))
	}
	found := 0
	for _, tc := range CompletenessSuite {
		reports := checkSource(t, "completeness.c", tc.Source)
		detected := false
		for _, r := range reports {
			if !tc.Expected || r.HasUB(tc.Kind) {
				detected = len(reports) > 0
				if tc.Expected && r.HasUB(tc.Kind) {
					detected = true
					break
				}
			}
		}
		if tc.Expected && !detected {
			t.Errorf("%s: expected detection, got none", tc.Name)
		}
		if !tc.Expected && len(reports) > 0 {
			t.Errorf("%s: expected miss (%s), got:\n%s", tc.Name, tc.WhyMiss, core.FormatReports(reports))
		}
		if detected && tc.Expected {
			found++
		}
	}
	if found != 7 {
		t.Errorf("found %d/10, paper reports 7/10", found)
	}
}

func TestGenerateArchiveDeterministic(t *testing.T) {
	cfg := ArchiveConfig{Packages: 10, FilesPerPackage: 2, FuncsPerFile: 4, UnstableFraction: 0.5, Seed: 7}
	a := GenerateArchive(cfg)
	b := GenerateArchive(cfg)
	if len(a) != len(b) || len(a) != 10 {
		t.Fatalf("lengths differ: %d %d", len(a), len(b))
	}
	for i := range a {
		if len(a[i].Files) != len(b[i].Files) {
			t.Fatalf("pkg %d files differ", i)
		}
		for j := range a[i].Files {
			if a[i].Files[j] != b[i].Files[j] {
				t.Fatalf("pkg %d file %d not deterministic", i, j)
			}
		}
	}
}

// TestSweepSmall runs a small archive end to end and checks the §6.5
// shape: a plausible fraction of packages with reports, null-deref the
// dominant UB kind, every planted kind detected somewhere.
func TestSweepSmall(t *testing.T) {
	cfg := ArchiveConfig{
		Packages: 40, FilesPerPackage: 2, FuncsPerFile: 5,
		UnstableFraction: 0.405, Seed: 20130324,
	}
	pkgs := GenerateArchive(cfg)
	res, err := Sweep(context.Background(), pkgs, core.Options{
		Timeout: 10 * time.Second, FilterOrigins: true, MinUBSets: true, Inline: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Packages != 40 {
		t.Fatalf("packages = %d", res.Packages)
	}
	// Every package with planted bugs must have reports; none without.
	planted := 0
	for _, p := range pkgs {
		if len(p.Planted) > 0 {
			planted++
		}
	}
	if res.PackagesWithReports != planted {
		t.Errorf("packages with reports = %d, packages with planted bugs = %d",
			res.PackagesWithReports, planted)
	}
	if res.Stats.Queries == 0 {
		t.Error("no solver queries recorded")
	}
	// Null-deref dominates the Fig. 18 distribution.
	maxKind, maxN := core.UBKind(0), -1
	totalPlantedNull := 0
	for _, p := range pkgs {
		totalPlantedNull += p.Planted[core.UBNullDeref]
	}
	for k, n := range res.ReportsByKind {
		if n > maxN {
			maxKind, maxN = k, n
		}
	}
	if totalPlantedNull > 5 && maxKind != core.UBNullDeref {
		t.Errorf("dominant UB kind = %v (%d), want null-deref per Fig. 18", maxKind, maxN)
	}
	s := res.Format()
	for _, want := range []string{"packages checked", "Fig. 17", "Fig. 18"} {
		if !strings.Contains(s, want) {
			t.Errorf("format output missing %q", want)
		}
	}
}

// TestTemplatesAllDetected checks each template variant individually:
// one report of the right kind, so corpus counts stay exact.
func TestTemplatesAllDetected(t *testing.T) {
	pools := []map[core.UBKind][]string{templates, valueTemplates}
	for pi, pool := range pools {
		for kind, tpls := range pool {
			for vi, tpl := range tpls {
				src := instantiate(tpl, "probe")
				reports := checkSource(t, "tpl.c", src)
				found := false
				for _, r := range reports {
					if r.HasUB(kind) {
						found = true
					}
				}
				if !found {
					t.Errorf("pool %d template %v variant %d undetected:\n%s\nreports:\n%s",
						pi, kind, vi, src, core.FormatReports(reports))
				}
			}
		}
	}
}

// TestValueTemplatesYieldSimplification: the value-form templates must
// produce simplification (not elimination) reports, preserving the
// Fig. 17 report-shape of the Debian sweep.
func TestValueTemplatesYieldSimplification(t *testing.T) {
	for kind, tpls := range valueTemplates {
		for vi, tpl := range tpls {
			src := instantiate(tpl, "probe")
			reports := checkSource(t, "tpl.c", src)
			hasSimplify := false
			for _, r := range reports {
				if r.Algo == core.AlgoSimplifyBool || r.Algo == core.AlgoSimplifyAlgebra {
					hasSimplify = true
				}
			}
			if !hasSimplify {
				t.Errorf("value template %v variant %d produced no simplification report:\n%s",
					kind, vi, core.FormatReports(reports))
			}
		}
	}
}

// TestFillersAllClean checks that stable fillers never produce
// reports (corpus precision baseline).
func TestFillersAllClean(t *testing.T) {
	for i, tpl := range stableFillers {
		src := instantiate(tpl, "clean")
		reports := checkSource(t, "filler.c", src)
		if len(reports) != 0 {
			t.Errorf("filler %d produced reports:\n%s", i, core.FormatReports(reports))
		}
	}
}

// TestKerberosPrecisionAfterFixes reproduces the §6.3 Kerberos result:
// the row's 11 bugs are detected; after applying the fixes, STACK
// produces zero reports.
func TestKerberosPrecisionAfterFixes(t *testing.T) {
	var row Fig9Row
	for _, r := range Fig9 {
		if r.System == "Kerberos" {
			row = r
		}
	}
	if row.Total() != 11 {
		t.Fatalf("Kerberos row total %d, want 11", row.Total())
	}
	fixed := GenerateFixedRow(row)
	reports := checkSource(t, "kerberos_fixed.c", fixed.Source)
	if len(reports) != 0 {
		t.Errorf("fixed Kerberos corpus still yields reports:\n%s", core.FormatReports(reports))
	}
}

// TestAllFixedTemplatesClean: every corrected template must be report-
// free — the fixes the checker's reports are supposed to motivate.
func TestAllFixedTemplatesClean(t *testing.T) {
	for kind, tpls := range FixedTemplates {
		for vi, tpl := range tpls {
			src := instantiate(tpl, "fixedprobe")
			reports := checkSource(t, "fixed.c", src)
			if len(reports) != 0 {
				t.Errorf("fixed template %v variant %d yields reports:\n%s",
					kind, vi, core.FormatReports(reports))
			}
		}
	}
}

// TestFixedCorpusAllRows extends the zero-report property to every
// Figure 9 row's fixed form.
func TestFixedCorpusAllRows(t *testing.T) {
	for _, row := range Fig9 {
		fixed := GenerateFixedRow(row)
		reports := checkSource(t, sanitize(row.System)+"_fixed.c", fixed.Source)
		if len(reports) != 0 {
			t.Errorf("%s fixed: %d report(s):\n%s", row.System, len(reports), core.FormatReports(reports))
		}
	}
}
