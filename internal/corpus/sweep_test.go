package corpus

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
)

func sweepOpts() core.Options {
	// Timeout 0 (no wall-clock deadline): the determinism tests compare
	// runs byte for byte, and a deadline could flip a near-limit query
	// to Unknown under load. These archives' queries all finish in
	// milliseconds, so no bound is needed.
	return core.Options{
		FilterOrigins: true, MinUBSets: true, Inline: true,
	}
}

// reportLogLines renders the sorted report log in a canonical textual
// form for byte-level comparison.
func reportLogLines(res *SweepResult) string {
	var b strings.Builder
	for _, fr := range res.ReportLog {
		fmt.Fprintf(&b, "%s: %s\n", fr.File, fr.Report)
	}
	return b.String()
}

// TestSweepDeterministicAcrossWorkers is the pipeline's core contract:
// Workers=1 and Workers=8 produce identical aggregate counts and
// byte-identical sorted report logs. Run under -race this also checks
// that the worker pipeline is free of data races.
func TestSweepDeterministicAcrossWorkers(t *testing.T) {
	cfg := ArchiveConfig{
		Packages: 24, FilesPerPackage: 2, FuncsPerFile: 5,
		UnstableFraction: 0.5, Seed: 99,
	}
	pkgs := GenerateArchive(cfg)

	serial, err := (&Sweeper{Options: sweepOpts(), Workers: 1}).Run(context.Background(), pkgs)
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := (&Sweeper{Options: sweepOpts(), Workers: 8}).Run(context.Background(), pkgs)
	if err != nil {
		t.Fatal(err)
	}

	if serial.Reports == 0 {
		t.Fatal("archive produced no reports; test is vacuous")
	}
	if c, p := summaryOf(serial), summaryOf(parallel); !reflect.DeepEqual(c, p) {
		t.Errorf("counts differ:\n workers=1: %+v\n workers=8: %+v", c, p)
	}
	sLog, pLog := reportLogLines(serial), reportLogLines(parallel)
	if sLog != pLog {
		t.Errorf("report logs differ between worker counts:\n--- workers=1\n%s--- workers=8\n%s", sLog, pLog)
	}
}

// TestSweepEmptyArchive: the degenerate sweep must succeed and Format
// must not divide by zero.
func TestSweepEmptyArchive(t *testing.T) {
	res, err := Sweep(context.Background(), nil, sweepOpts())
	if err != nil {
		t.Fatal(err)
	}
	if res.Packages != 0 || res.Files != 0 || res.Reports != 0 {
		t.Fatalf("empty archive produced work: %+v", res)
	}
	if !strings.Contains(res.Format(), "packages checked:        0") {
		t.Errorf("Format output unexpected:\n%s", res.Format())
	}
}

// validFuncs is n small valid functions: a file the frontend takes a
// while to accept.
func validFuncs(n int) string {
	var b strings.Builder
	for i := 0; i < n; i++ {
		fmt.Fprintf(&b, "int f%d(int x) { return x + %d; }\n", i, i)
	}
	return b.String()
}

// TestSweepErrorPropagation: a file the frontend rejects must surface
// as an error (not a hang or partial result) naming the file, and when
// several files fail it is the first in archive order that is named,
// however the workers finish: a_0.c fails only after parsing 3,000
// functions, a_1.c at once.
func TestSweepErrorPropagation(t *testing.T) {
	for _, tc := range []struct {
		name string
		pkgs []Package
		want string
	}{
		{"one bad file", []Package{
			{Name: "good", Files: []string{"int f(int x) { return x + 1; }\n"}},
			{Name: "bad", Files: []string{"int broken( {\n"}},
		}, "bad_0.c"},
		{"slow failure first", []Package{
			{Name: "a", Files: []string{validFuncs(3000) + "int broken( {\n", "int broken( {\n"}},
		}, "a_0.c"},
	} {
		for _, workers := range []int{1, 4, 16} {
			_, err := (&Sweeper{Options: sweepOpts(), Workers: workers}).Run(context.Background(), tc.pkgs)
			if err == nil {
				t.Errorf("%s, workers=%d: sweep of invalid source succeeded", tc.name, workers)
			} else if !strings.HasPrefix(err.Error(), tc.want+": ") {
				t.Errorf("%s, workers=%d: error does not name %s: %v", tc.name, workers, tc.want, err)
			}
		}
	}
}

// countingCache is an always-missing ResultCache that counts lookups,
// each of which happens as a file enters the per-file pipeline.
type countingCache struct{ lookups atomic.Int64 }

func (c *countingCache) Lookup(string, string) (CachedFile, bool) {
	c.lookups.Add(1)
	return CachedFile{}, false
}
func (*countingCache) Store(string, string, CachedFile) {}

// TestCheckPreCancelledRunsNothing: with ctx already done, no file
// enters the pipeline — not even one that would fail to parse — and
// Check returns ctx's error.
func TestCheckPreCancelledRunsNothing(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	files := []Source{{Name: "bad.c", Text: "int broken( {\n"}, {Name: "good.c", Text: "int f(void) { return 0; }\n"}}
	for _, workers := range []int{1, 4} {
		cache := &countingCache{}
		sw := &Sweeper{Options: sweepOpts(), Workers: workers, Cache: cache}
		delivered := 0
		_, err := sw.Check(ctx, files, func(FileResult) error { delivered++; return nil })
		if !errors.Is(err, context.Canceled) {
			t.Errorf("workers=%d: err = %v, want context.Canceled", workers, err)
		}
		if n := cache.lookups.Load(); n != 0 || delivered != 0 {
			t.Errorf("workers=%d: %d file(s) entered the pipeline and %d were delivered after cancel", workers, n, delivered)
		}
	}
}

// summaryOf is r without the fields outside the byte-identity
// guarantee: the wall-clock timings and the "sched" counters, which
// depend on how files spread over workers. The report log is dropped
// too; tests compare it separately, rendered by reportLogLines.
func summaryOf(r *SweepResult) SweepResult {
	s := *r
	s.BuildTime, s.AnalysisTime, s.ReportLog = 0, 0, nil
	s.Stats = s.Stats.Without("sched")
	return s
}

// TestSweepByteIdenticalAcrossWorkersAndModes is the streaming sweep's
// contract: every Workers ∈ {1, 4, 16} produces an identical summary —
// every checker counter included — and a byte-identical sorted report
// log.
func TestSweepByteIdenticalAcrossWorkersAndModes(t *testing.T) {
	cfg := ArchiveConfig{
		Packages: 16, FilesPerPackage: 2, FuncsPerFile: 5,
		UnstableFraction: 0.5, Seed: 21,
	}
	pkgs := GenerateArchive(cfg)

	var base *SweepResult
	for _, workers := range []int{1, 4, 16} {
		res, err := (&Sweeper{Options: sweepOpts(), Workers: workers}).Run(context.Background(), pkgs)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if base == nil {
			if res.Reports == 0 {
				t.Fatal("archive produced no reports; test is vacuous")
			}
			base = res
			continue
		}
		if got, want := summaryOf(res), summaryOf(base); !reflect.DeepEqual(got, want) {
			t.Errorf("workers=%d: summary diverges:\n got  %+v\n want %+v", workers, got, want)
		}
		if log, baseLog := reportLogLines(res), reportLogLines(base); log != baseLog {
			t.Errorf("workers=%d: report log diverges:\n--- got\n%s--- want\n%s", workers, log, baseLog)
		}
	}
}

// TestSweepStreamingEmitsInOrder: RunStream must deliver every file
// exactly once, in archive order, with the streamed per-file reports
// adding up to the final result.
func TestSweepStreamingEmitsInOrder(t *testing.T) {
	cfg := ArchiveConfig{
		Packages: 10, FilesPerPackage: 3, FuncsPerFile: 4,
		UnstableFraction: 0.5, Seed: 7,
	}
	pkgs := GenerateArchive(cfg)
	var streamed []FileResult
	res, err := (&Sweeper{Options: sweepOpts(), Workers: 8}).RunStream(context.Background(), pkgs, func(fr FileResult) {
		streamed = append(streamed, fr)
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(streamed) != res.Files {
		t.Fatalf("emitted %d files, result has %d", len(streamed), res.Files)
	}
	total := 0
	for i, fr := range streamed {
		if fr.Index != i {
			t.Fatalf("emission %d carries index %d; want strict archive order", i, fr.Index)
		}
		if fr.File == "" || fr.Package == "" {
			t.Errorf("emission %d missing file/package metadata: %+v", i, fr)
		}
		total += len(fr.Reports)
	}
	if total != res.Reports {
		t.Errorf("streamed reports = %d, aggregate = %d", total, res.Reports)
	}
}

// TestSweepErrorShutdownNoDeadlock: a failing file mid-archive must
// shut the pool down promptly at high worker counts — no deadlock
// between feeder, workers, and the emitter. Run under -race this
// doubles as the shutdown race test.
func TestSweepErrorShutdownNoDeadlock(t *testing.T) {
	var pkgs []Package
	for i := 0; i < 30; i++ {
		pkgs = append(pkgs, Package{
			Name:  fmt.Sprintf("p%02d", i),
			Files: []string{"int f(int x) { return x + 1; }\n"},
		})
	}
	pkgs[17].Files = append(pkgs[17].Files, "int broken( {\n")

	for _, workers := range []int{4, 16} {
		done := make(chan error, 1)
		go func() {
			_, err := (&Sweeper{Options: sweepOpts(), Workers: workers}).Run(context.Background(), pkgs)
			done <- err
		}()
		select {
		case err := <-done:
			if err == nil {
				t.Errorf("workers=%d: sweep of invalid archive succeeded", workers)
			} else if !strings.Contains(err.Error(), "p17_1.c") {
				t.Errorf("workers=%d: error does not name the file: %v", workers, err)
			}
		case <-time.After(30 * time.Second):
			t.Fatalf("workers=%d: sweep deadlocked on error shutdown", workers)
		}
	}
}

// TestSweepIncrementalVsScratch is the checker-level differential
// contract of the incremental solving subsystem: per-function sessions
// that reuse one SAT core across a function's queries must produce
// byte-identical reports, counts, and report log to scratch solving,
// which rebuilds solver and encoding for every query.
func TestSweepIncrementalVsScratch(t *testing.T) {
	cfg := ArchiveConfig{
		Packages: 16, FilesPerPackage: 2, FuncsPerFile: 5,
		UnstableFraction: 0.7, Seed: 33,
	}
	pkgs := GenerateArchive(cfg)

	inc, err := (&Sweeper{Options: sweepOpts(), Workers: 4}).Run(context.Background(), pkgs)
	if err != nil {
		t.Fatal(err)
	}
	scratchOpts := sweepOpts()
	scratchOpts.ScratchSolve = true
	scr, err := (&Sweeper{Options: scratchOpts, Workers: 4}).Run(context.Background(), pkgs)
	if err != nil {
		t.Fatal(err)
	}
	if inc.Reports == 0 {
		t.Fatal("archive produced no reports; test is vacuous")
	}

	// Verdict-level outputs are identical; only blasting, learnt and
	// witness effort differs.
	ci, cs := summaryOf(inc), summaryOf(scr)
	ci.Stats, cs.Stats = ci.Stats.Without("effort"), cs.Stats.Without("effort")
	if !reflect.DeepEqual(ci, cs) {
		t.Errorf("counts diverge:\n incremental: %+v\n scratch:     %+v", ci, cs)
	}
	if il, sl := reportLogLines(inc), reportLogLines(scr); il != sl {
		t.Errorf("report logs diverge:\n--- incremental\n%s--- scratch\n%s", il, sl)
	}

	// And the effort asymmetry that is the point of the subsystem:
	// scratch re-blasts what the session amortizes.
	if inc.Stats.TermsBlasted >= scr.Stats.TermsBlasted {
		t.Errorf("incremental blasted %d terms, scratch %d; expected strictly fewer",
			inc.Stats.TermsBlasted, scr.Stats.TermsBlasted)
	}
	if inc.Stats.BlastPasses >= scr.Stats.BlastPasses {
		t.Errorf("incremental blast passes %d, scratch %d; expected strictly fewer",
			inc.Stats.BlastPasses, scr.Stats.BlastPasses)
	}
	if scr.Stats.LearntsReused != 0 {
		t.Errorf("scratch mode reused %d learned clauses; must be 0", scr.Stats.LearntsReused)
	}
	// Scratch solving is the witness-free oracle; incremental sessions
	// must actually answer queries from stored assignments.
	if scr.Stats.WitnessHits != 0 {
		t.Errorf("scratch mode answered %d queries from stored assignments; must be 0", scr.Stats.WitnessHits)
	}
	if inc.Stats.WitnessHits == 0 {
		t.Error("incremental sessions answered no query from a stored assignment")
	}
}

// TestSweepRewriteLayerEngaged: the word-level rewrite layer must fire
// during a sweep and its solver fast paths must be visible in the
// result, so regressions that silently disable it are caught here.
func TestSweepRewriteLayerEngaged(t *testing.T) {
	cfg := ArchiveConfig{
		Packages: 8, FilesPerPackage: 2, FuncsPerFile: 4,
		UnstableFraction: 1, Seed: 5,
	}
	res, err := Sweep(context.Background(), GenerateArchive(cfg), sweepOpts())
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.RewriteHits == 0 {
		t.Error("sweep recorded zero rewrite hits")
	}
	if res.Stats.TermsCreated == 0 {
		t.Error("sweep recorded zero terms created")
	}
	if res.Stats.CacheHits == 0 {
		t.Error("sweep recorded zero builder cache hits")
	}
	if res.Stats.ArenaBytesReused == 0 {
		t.Error("sweep recorded zero arena bytes reused; per-function arena recycling is off")
	}
}
