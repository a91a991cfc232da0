package stack

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/corpus"
)

// fig1Src is the paper's opening example: the pointer-overflow sanity
// check that gcc silently deletes. One deterministic elimination
// diagnostic.
const fig1Src = `
int parse_header(char *buf, char *buf_end, unsigned int len) {
	if (buf + len >= buf_end)
		return -1; /* len too large */
	if (buf + len < buf)
		return -1; /* overflow check: compilers delete this */
	return 0;
}
`

// divSrc adds a division-driven report with a simplification (the
// check follows the division, the §6.2.1 Postgres shape), so the
// identity tests cover the Simplified rendering path too.
const divSrc = `
int scale(int x, int y) {
	int q = x / y;
	if (y == 0)
		return -1;
	return q;
}
`

func analyzeReports(t *testing.T, name, src string) []*core.Report {
	t.Helper()
	sw := &corpus.Sweeper{Options: core.DefaultOptions}
	fr, err := sw.CheckFile(context.Background(), core.New(core.DefaultOptions), &core.Stats{}, name, src)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	return fr.Reports
}

// TestFormatDiagnosticsByteIdentity pins the public text rendering to
// the internal checker's classic FormatReports output — the frozen
// format the ROADMAP invariant records.
func TestFormatDiagnosticsByteIdentity(t *testing.T) {
	for _, tc := range []struct{ name, src string }{
		{"fig1.c", fig1Src},
		{"div.c", divSrc},
	} {
		reports := analyzeReports(t, tc.name, tc.src)
		if len(reports) == 0 {
			t.Fatalf("%s: expected reports", tc.name)
		}
		want := core.FormatReports(reports)
		got := FormatDiagnostics(diagnosticsOf(reports))
		if got != want {
			t.Errorf("%s: text rendering diverged\n--- internal ---\n%s--- public ---\n%s", tc.name, want, got)
		}
	}
	if got, want := FormatDiagnostics(nil), core.FormatReports(nil); got != want {
		t.Errorf("empty rendering: got %q want %q", got, want)
	}
}

// TestDiagnosticCodesStable pins the append-only code registries.
func TestDiagnosticCodesStable(t *testing.T) {
	if RuleElimination != "STACK-E001" || RuleSimplifyBool != "STACK-S001" || RuleSimplifyAlgebra != "STACK-S002" {
		t.Error("rule codes changed; the registry is append-only")
	}
	wantUB := []string{"UB001", "UB002", "UB003", "UB004", "UB005", "UB006", "UB007", "UB008", "UB009", "UB010"}
	for i, w := range wantUB {
		if ubCodes[i] != w {
			t.Errorf("ubCodes[%d] = %q, want %q; the registry is append-only", i, ubCodes[i], w)
		}
	}
	// The registries must keep pace with the internal enums: a UB kind
	// or algorithm added to core without a code here would panic the
	// conversion at runtime.
	if len(ubCodes) != core.NumUBKinds {
		t.Errorf("ubCodes has %d entries but core models %d UB kinds; append the new code(s)",
			len(ubCodes), core.NumUBKinds)
	}
	if want := int(core.AlgoSimplifyAlgebra) + 1; len(ruleCodes) != want {
		t.Errorf("ruleCodes has %d entries but core has %d algorithms; append the new code(s)",
			len(ruleCodes), want)
	}
}

const goldenDiagnosticJSON = `{
  "code": "STACK-E001",
  "algo": "elimination",
  "function": "parse_header",
  "span": {
    "file": "figure1.c",
    "line": 6,
    "col": 11
  },
  "category": "urgent optimization bug",
  "ub": [
    {
      "code": "UB001",
      "kind": "pointer overflow",
      "span": {
        "file": "figure1.c",
        "line": 3,
        "col": 10
      }
    }
  ]
}`

// TestGoldenJSONRoundTrip: the wire encoding of a real diagnostic is
// pinned byte-for-byte, and decoding it recovers the identical value.
func TestGoldenJSONRoundTrip(t *testing.T) {
	reports := analyzeReports(t, "figure1.c", fig1Src)
	if len(reports) != 1 {
		t.Fatalf("fig1 produced %d reports, want 1", len(reports))
	}
	d := diagnosticOf(reports[0])
	enc, err := json.MarshalIndent(d, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if string(enc) != goldenDiagnosticJSON {
		t.Errorf("JSON encoding diverged from golden\n--- got ---\n%s\n--- want ---\n%s", enc, goldenDiagnosticJSON)
	}
	var back Diagnostic
	if err := json.Unmarshal(enc, &back); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(back, d) {
		t.Errorf("round trip lost data: %+v != %+v", back, d)
	}
}

const goldenSARIF = `{
  "$schema": "https://json.schemastore.org/sarif-2.1.0.json",
  "version": "2.1.0",
  "runs": [
    {
      "tool": {
        "driver": {
          "name": "stack",
          "informationUri": "https://css.csail.mit.edu/stack/",
          "rules": [
            {
              "id": "STACK-E001",
              "name": "UnstableCodeElimination",
              "shortDescription": {
                "text": "reachable code becomes unreachable under the well-defined program assumption"
              }
            },
            {
              "id": "STACK-S001",
              "name": "UnstableBooleanSimplification",
              "shortDescription": {
                "text": "boolean expression folds to a constant under the well-defined program assumption"
              }
            },
            {
              "id": "STACK-S002",
              "name": "UnstableAlgebraicSimplification",
              "shortDescription": {
                "text": "comparison simplifies algebraically under the well-defined program assumption"
              }
            }
          ]
        }
      },
      "results": [
        {
          "ruleId": "STACK-E001",
          "level": "warning",
          "message": {
            "text": "unstable code in parse_header [elimination]"
          },
          "locations": [
            {
              "physicalLocation": {
                "artifactLocation": {
                  "uri": "figure1.c"
                },
                "region": {
                  "startLine": 6,
                  "startColumn": 11
                }
              }
            }
          ],
          "properties": {
            "category": "urgent optimization bug",
            "function": "parse_header",
            "ub": [
              {
                "code": "UB001",
                "col": 10,
                "kind": "pointer overflow",
                "line": 3
              }
            ]
          }
        }
      ]
    }
  ]
}
`

// TestGoldenSARIF pins the SARIF encoding of a real diagnostic.
func TestGoldenSARIF(t *testing.T) {
	reports := analyzeReports(t, "figure1.c", fig1Src)
	var buf bytes.Buffer
	sink := NewSARIFSink(&buf)
	if err := sink.Emit(FileResult{File: "figure1.c", Diagnostics: diagnosticsOf(reports)}); err != nil {
		t.Fatal(err)
	}
	if err := sink.Close(); err != nil {
		t.Fatal(err)
	}
	if buf.String() != goldenSARIF {
		t.Errorf("SARIF encoding diverged from golden\n--- got ---\n%s\n--- want ---\n%s", buf.String(), goldenSARIF)
	}
	var log sarifLog
	if err := json.Unmarshal(buf.Bytes(), &log); err != nil {
		t.Fatalf("golden SARIF does not decode: %v", err)
	}
	if len(log.Runs) != 1 || len(log.Runs[0].Results) != 1 {
		t.Errorf("unexpected SARIF shape: %+v", log)
	}
}

// TestSARIFEmptyRun: a clean sweep still encodes a decodable log with
// an empty (not null) results array.
func TestSARIFEmptyRun(t *testing.T) {
	var buf bytes.Buffer
	sink := NewSARIFSink(&buf)
	if err := sink.Close(); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), `"results": []`) {
		t.Errorf("empty run must encode results as []:\n%s", buf.String())
	}
}

// TestJSONLSinkRoundTrip: every emitted line decodes back to the
// emitted FileResult.
func TestJSONLSinkRoundTrip(t *testing.T) {
	reports := analyzeReports(t, "fig1.c", fig1Src)
	in := []FileResult{
		{Index: 0, Package: "p0", File: "fig1.c", Functions: 1, Diagnostics: diagnosticsOf(reports)},
		{Index: 1, Package: "p0", File: "clean.c", Functions: 2},
	}
	var buf bytes.Buffer
	sink := NewJSONLSink(&buf)
	for _, fr := range in {
		if err := sink.Emit(fr); err != nil {
			t.Fatal(err)
		}
	}
	if err := sink.Close(); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimRight(buf.String(), "\n"), "\n")
	if len(lines) != len(in) {
		t.Fatalf("got %d lines, want %d", len(lines), len(in))
	}
	for i, line := range lines {
		var back FileResult
		if err := json.Unmarshal([]byte(line), &back); err != nil {
			t.Fatalf("line %d: %v", i, err)
		}
		if !reflect.DeepEqual(back, in[i]) {
			t.Errorf("line %d round trip: %+v != %+v", i, back, in[i])
		}
	}
}

// sweepArchive is a small archive with planted bugs for the sweep
// identity and cancellation tests.
func sweepArchive() []corpus.Package {
	return corpus.GenerateArchive(corpus.ArchiveConfig{
		Packages: 6, FilesPerPackage: 2, FuncsPerFile: 3,
		UnstableFraction: 1, Seed: 7,
	})
}

func publicPackages(pkgs []corpus.Package) []Package {
	out := make([]Package, len(pkgs))
	for i, p := range pkgs {
		out[i] = Package{Name: p.Name, Files: p.Files}
	}
	return out
}

// TestTextSinkSweepByteIdentity: the text sink fed by Analyzer.Sweep
// reproduces, byte for byte, the legacy streaming CLI output (driving
// the internal sweeper directly), for Workers ∈ {1, 4, 16} — the
// acceptance bar of the API redesign.
func TestTextSinkSweepByteIdentity(t *testing.T) {
	pkgs := sweepArchive()
	for _, workers := range []int{1, 4, 16} {
		// No wall-clock budget, so the output is strictly deterministic.
		az := New(WithWorkers(workers), WithSolverTimeout(0))

		var want bytes.Buffer
		sw := &corpus.Sweeper{Options: az.coreOptions(), Workers: workers}
		wantRes, err := sw.RunStream(context.Background(), pkgs, func(fr corpus.FileResult) {
			if len(fr.Reports) == 0 {
				return
			}
			fmt.Fprintf(&want, "%s: %d report(s)\n", fr.File, len(fr.Reports))
			for _, r := range fr.Reports {
				fmt.Fprintf(&want, "  %v\n", r)
			}
		})
		if err != nil {
			t.Fatalf("workers=%d: legacy sweep: %v", workers, err)
		}

		var got bytes.Buffer
		res, err := az.Sweep(context.Background(), publicPackages(pkgs), NewTextSink(&got))
		if err != nil {
			t.Fatalf("workers=%d: Sweep: %v", workers, err)
		}
		if got.String() != want.String() {
			t.Errorf("workers=%d: text sink output diverged from legacy stream\n--- got ---\n%s--- want ---\n%s",
				workers, got.String(), want.String())
		}
		if res.Reports != wantRes.Reports || res.Queries != wantRes.Stats.Queries || res.Files != wantRes.Files ||
			res.Functions != wantRes.Functions || res.PackagesWithReports != wantRes.PackagesWithReports {
			t.Errorf("workers=%d: summary mismatch: %+v vs internal %+v", workers, res, wantRes)
		}
		if want.Len() == 0 {
			t.Fatal("archive produced no reports; identity test is vacuous")
		}
	}
}

// batchRuns drive each in-process batch entry point over srcs,
// emitting each result's index. Sweep gets one single-file package per
// source; the sources are named "<name>_0.c", so Sweep's file names
// match.
var batchRuns = []struct {
	name string
	run  func(ctx context.Context, az *Analyzer, srcs []Source, emit func(int)) error
}{
	{"CheckSources", func(ctx context.Context, az *Analyzer, srcs []Source, emit func(int)) error {
		_, err := az.CheckSources(ctx, srcs, func(fr FileResult) { emit(fr.Index) })
		return err
	}},
	{"Sweep", func(ctx context.Context, az *Analyzer, srcs []Source, emit func(int)) error {
		pkgs := make([]Package, len(srcs))
		for i, s := range srcs {
			pkgs[i] = Package{Name: strings.TrimSuffix(s.Name, "_0.c"), Files: []string{s.Text}}
		}
		_, err := az.Sweep(ctx, pkgs, emitSink(emit))
		return err
	}},
}

// emitSink is a Sink that reports each result's index.
type emitSink func(int)

func (s emitSink) Emit(fr FileResult) error { s(fr.Index); return nil }
func (emitSink) Close() error               { return nil }

// lateCancel is a context that turns cancelled after n Err calls: the
// pool starts the file, and the checker observes the cancel partway
// through it.
type lateCancel struct {
	context.Context
	n atomic.Int64
}

func (c *lateCancel) Err() error {
	if c.n.Add(-1) < 0 {
		return context.Canceled
	}
	return nil
}

// manyFuncs is fig1Src's function repeated n times under distinct
// names: a valid file that takes a while to check.
func manyFuncs(n int) string {
	var b strings.Builder
	for i := 0; i < n; i++ {
		b.WriteString(strings.Replace(fig1Src, "parse_header", fmt.Sprintf("parse_header%d", i), 1))
	}
	return b.String()
}

// TestCheckSourcesOrderAndErrors: the Checker contract, for both
// namedOnce reports whether err starts with "name:" and names the
// file nowhere else.
func namedOnce(err error, name string) bool {
	return err != nil && strings.HasPrefix(err.Error(), name+":") && strings.Count(err.Error(), name) == 1
}

// CheckSources and Sweep: emission is in input order, an erroring
// source stops emission at its index with every earlier source
// emitted, the error names the source once, at its start (checker errors
// included), and a context already done runs nothing.
func TestCheckSourcesOrderAndErrors(t *testing.T) {
	broken := Source{Name: "broken_0.c", Text: "int f( {"}
	for _, br := range batchRuns {
		t.Run(br.name, func(t *testing.T) {
			run := func(ctx context.Context, workers int, srcs []Source) ([]int, error) {
				var order []int
				err := br.run(ctx, New(WithWorkers(workers)), srcs, func(i int) { order = append(order, i) })
				return order, err
			}
			order, err := run(context.Background(), 4, []Source{
				{Name: "a_0.c", Text: fig1Src}, {Name: "b_0.c", Text: divSrc}, broken, {Name: "after_0.c", Text: fig1Src},
			})
			if !namedOnce(err, "broken_0.c") {
				t.Fatalf("error = %v, want one naming broken_0.c once, at the start", err)
			}
			if !reflect.DeepEqual(order, []int{0, 1}) {
				t.Errorf("emitted indices %v, want [0 1]", order)
			}

			// A slow valid source before a broken one is still emitted.
			slow := []Source{{Name: "slow_0.c", Text: manyFuncs(12)}, broken}
			for i := 0; i < 3; i++ {
				if order, err := run(context.Background(), 4, slow); err == nil || !reflect.DeepEqual(order, []int{0}) {
					t.Errorf("slow then broken: emitted %v, err %v; want [0] and an error", order, err)
				}
			}

			// A cancel the checker observes names the source.
			late := &lateCancel{Context: context.Background()}
			late.n.Store(20)
			if _, err := run(late, 1, slow[:1]); !errors.Is(err, context.Canceled) || !namedOnce(err, "slow_0.c") {
				t.Errorf("cancelled mid-check: err = %v, want context.Canceled naming slow_0.c once, at the start", err)
			}

			// A context done before the call never reaches the frontend.
			pre, cancel := context.WithCancel(context.Background())
			cancel()
			if order, err := run(pre, 4, []Source{broken}); !errors.Is(err, context.Canceled) || len(order) != 0 {
				t.Errorf("pre-cancelled: emitted %v, err %v; want nothing and context.Canceled", order, err)
			}

			// Happy path: every index, strictly increasing, any worker count.
			for _, workers := range []int{1, 3} {
				got, err := run(context.Background(), workers, []Source{
					{Name: "a_0.c", Text: fig1Src}, {Name: "b_0.c", Text: divSrc}, {Name: "c_0.c", Text: fig1Src},
				})
				if err != nil {
					t.Fatalf("workers=%d: %v", workers, err)
				}
				if !reflect.DeepEqual(got, []int{0, 1, 2}) {
					t.Errorf("workers=%d: indices %v", workers, got)
				}
			}
		})
	}

	// CheckSources merges the workers' stats.
	st, err := New(WithWorkers(3)).CheckSources(context.Background(), []Source{
		{Name: "a.c", Text: fig1Src}, {Name: "b.c", Text: divSrc}, {Name: "c.c", Text: fig1Src},
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if st.Queries == 0 || st.Functions != 3 {
		t.Errorf("stats not merged: %+v", st)
	}
}

// TestCheckSourceCancelled: an already-cancelled context aborts the
// analysis and surfaces ctx.Err().
func TestCheckSourceCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	az := New()
	if _, err := az.CheckSource(ctx, "x.c", fig1Src); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// cancellingSink cancels the sweep context after the first emission —
// a client disconnecting mid-stream.
type cancellingSink struct {
	cancel  context.CancelFunc
	emitted int
}

func (s *cancellingSink) Emit(FileResult) error {
	s.emitted++
	s.cancel()
	return nil
}

func (s *cancellingSink) Close() error { return nil }

// TestSweepCancellation: cancelling the context mid-sweep returns
// ctx.Err() promptly, without deadlocking the pipeline — for both a
// mid-stream cancel and an already-cancelled context.
func TestSweepCancellation(t *testing.T) {
	// Large enough that the whole archive cannot drain between the
	// first emission and the cancel taking effect (the admission
	// window holds at most 4*workers files in flight).
	pkgs := publicPackages(corpus.GenerateArchive(corpus.ArchiveConfig{
		Packages: 20, FilesPerPackage: 2, FuncsPerFile: 3,
		UnstableFraction: 1, Seed: 9,
	}))
	az := New(WithWorkers(4))

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	sink := &cancellingSink{cancel: cancel}
	type outcome struct {
		res *SweepResult
		err error
	}
	done := make(chan outcome, 1)
	go func() {
		res, err := az.Sweep(ctx, pkgs, sink)
		done <- outcome{res, err}
	}()
	select {
	case o := <-done:
		if !errors.Is(o.err, context.Canceled) {
			t.Fatalf("err = %v, want context.Canceled", o.err)
		}
		if o.res != nil {
			t.Error("cancelled sweep returned a result")
		}
	case <-time.After(30 * time.Second):
		t.Fatal("cancelled sweep did not return: pipeline deadlock")
	}
	if sink.emitted == 0 {
		t.Error("sink never ran; cancellation path not exercised")
	}

	pre, preCancel := context.WithCancel(context.Background())
	preCancel()
	if _, err := az.Sweep(pre, pkgs, nil); !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-cancelled sweep: err = %v, want context.Canceled", err)
	}
}

// failingSink returns an error on the first emission; the sweep must
// abort and surface that error.
type failingSink struct{ err error }

func (s failingSink) Emit(FileResult) error { return s.err }
func (failingSink) Close() error            { return nil }

func TestSweepSinkErrorAborts(t *testing.T) {
	pkgs := publicPackages(sweepArchive())
	az := New(WithWorkers(2))
	boom := errors.New("sink exploded")
	_, err := az.Sweep(context.Background(), pkgs, failingSink{boom})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want the sink's error", err)
	}
}
