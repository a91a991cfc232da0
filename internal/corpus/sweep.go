package corpus

// Whole-archive sweeping. The paper ran its checker over all 8,575
// Debian Wheezy packages on a 16-core Xeon (§6.4); checking distinct
// files is embarrassingly parallel because each function gets a fresh
// builder and solver. Every in-process analysis — the archive sweep,
// stack.Analyzer.CheckSources, and stack.Analyzer.CheckSource — runs
// one per-file function, CheckFile:
//
//	cache lookup → preprocess → parse → typecheck → IR → check → cache store
//
// Sweeper.Check fans files out over a single-stage pool: each worker
// owns one core.Checker and runs CheckFile on one file after another,
// and finished files are re-sequenced into input order by the shared
// deterministic in-order emitter (emit.Ordered):
//
//	feeder → [workers: CheckFile, one core.Checker each] → emit.Ordered → deliver
//
// Per-worker state is fully isolated — stats accumulate lock-free in
// each worker's Checker and are reduced with core.Stats.Add at the end
// — and results reach the caller strictly in input order, so every
// count and report in the merged SweepResult (including the sorted
// report log) is byte-identical for any worker count. The only fields
// outside that guarantee are BuildTime and AnalysisTime, which are
// wall-clock sums over workers and vary run to run like any measured
// duration.
//
// Results stream: the emitter holds only the out-of-order files
// currently in flight (O(Workers), not O(archive)), and the aggregate —
// plus the caller's Stream callback, if any — consumes files
// strictly in archive order. The first error in input order stops the
// pool: files before it are all delivered, files after it never are.
//
// One caveat bounds that guarantee: it assumes each solver query's
// verdict is itself reproducible. With Options.Timeout set, a query
// running near the wall-clock deadline can flip between a verdict and
// Unknown depending on machine load (which -j changes), perturbing
// reports and the Timeouts count. For strict byte-identical output use
// Timeout = 0, optionally with MaxConflictsPerQuery as a deterministic
// effort bound. In practice the archive generator's queries finish
// orders of magnitude under the paper's 5s timeout, so the default
// configuration is stable too.

import (
	"context"
	"fmt"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cc"
	"repro/internal/core"
	"repro/internal/emit"
	"repro/internal/ir"
)

// Sweeper configures the per-file pipeline and its worker pool: an
// archive sweep, a batch of sources, or a single file.
type Sweeper struct {
	// Options configures each per-worker checker.
	Options core.Options
	// Workers sets the number of pool workers, each running CheckFile
	// on one file at a time with its own core.Checker; values <= 0
	// mean runtime.GOMAXPROCS(0). All counts and reports are identical
	// for every worker count (see the package caveats on timing fields
	// and wall-clock query timeouts).
	Workers int
	// Cache, when non-nil, is consulted per file before the frontend
	// runs: a hit delivers the cached reports straight to the in-order
	// emitter (no parse, no IR, no solver), a miss analyzes the file
	// and stores the finished result. Because hits and fresh results
	// flow through the same ordered delivery path, a warm sweep's
	// diagnostic stream is byte-identical to a cold one for any worker
	// count. Workers never enters the cache key — it cannot change
	// results, only how results are computed.
	Cache ResultCache
}

// Source is one named C translation unit for Check.
type Source struct {
	Name string
	Text string
}

// FileReport pairs a report with the archive file that produced it.
type FileReport struct {
	File   string
	Report *core.Report
}

// FileResult is one file's finished analysis, as CheckFile returns it
// and as Check and Stream deliver it in input order.
type FileResult struct {
	// Index is the file's position in the input; callbacks observe
	// strictly increasing indices 0, 1, 2, ...
	Index int
	// Package is set by the archive sweep only.
	Package      string
	File         string
	Functions    int
	Reports      []*core.Report
	BuildTime    time.Duration
	AnalysisTime time.Duration
}

// SweepResult aggregates a whole-archive run: the quantities of the
// paper's Figures 16, 17, and 18 plus the §6.5 minimal-set histogram.
type SweepResult struct {
	Packages            int
	PackagesWithReports int
	Files               int
	Functions           int
	Reports             int
	ReportsByAlgo       map[core.Algo]int
	ReportsByKind       map[core.UBKind]int
	MinSetHistogram     map[int]int
	BuildTime           time.Duration // frontend + IR construction, summed over workers
	AnalysisTime        time.Duration // solver-based checking, summed over workers
	// Stats sums the checker counters over every worker (see
	// core.Stats). Format prints only the deterministic ones:
	// ArenaBytesReused varies with the worker count, and the SSA and
	// result-cache counters stay out so that the text block is
	// byte-identical between the SSA and legacy pipelines and between
	// cold and warm runs.
	Stats core.Stats
	// ReportLog lists every report with its file, sorted by file, then
	// position, then algorithm — the deterministic flat view of the
	// sweep, independent of worker count and scheduling.
	ReportLog []FileReport
}

// Sweep runs the checker over every package with the default worker
// count (one per CPU).
func Sweep(ctx context.Context, pkgs []Package, opts core.Options) (*SweepResult, error) {
	return (&Sweeper{Options: opts}).Run(ctx, pkgs)
}

// CheckFile is the per-file pipeline: cache lookup, then the frontend
// (preprocess, parse, typecheck, IR build) and checker.CheckProgram,
// then cache store. checker accumulates the analysis effort; st
// receives the cache traffic and, on a hit, the replayed shape
// counters. Once ctx is done CheckFile returns ctx's error without
// starting; other errors are returned as the frontend or checker
// produced them, without the file name. The result's Index and
// Package are left for the caller.
func (s *Sweeper) CheckFile(ctx context.Context, checker *core.Checker, st *core.Stats, name, src string) (FileResult, error) {
	fr := FileResult{File: name}
	if ctx != nil && ctx.Err() != nil {
		return fr, ctx.Err()
	}
	t0 := time.Now()
	if s.Cache != nil {
		if cf, ok := s.Cache.Lookup(name, src); ok {
			cf.ReplayHit(st)
			fr.Functions, fr.Reports, fr.BuildTime = cf.Functions, cf.Reports, time.Since(t0)
			return fr, nil
		}
		st.CacheResultMisses++
	}
	file, err := cc.Parse(name, src)
	if err != nil {
		return fr, err
	}
	if err := cc.Check(file); err != nil {
		return fr, err
	}
	prog, err := ir.Build(file)
	if err != nil {
		return fr, err
	}
	fr.Functions = len(prog.Funcs)
	fr.BuildTime = time.Since(t0)

	before := checker.Stats()
	t1 := time.Now()
	if fr.Reports, err = checker.CheckProgram(ctx, prog); err != nil {
		return fr, err
	}
	if s.Cache != nil {
		// The shape deltas come from the checker's own books: exactly
		// what a warm hit must replay.
		after := checker.Stats()
		s.Cache.Store(name, src, CachedFile{
			Functions: after.Functions - before.Functions,
			Blocks:    after.Blocks - before.Blocks,
			Reports:   fr.Reports,
		})
	}
	fr.AnalysisTime = time.Since(t1)
	return fr, nil
}

// Check runs every file through CheckFile on the worker pool and calls
// deliver once per file, in input order, as soon as that file and
// every earlier one have finished. deliver runs on one goroutine, so
// it needs no lock; a slow deliver backpressures the pool through the
// emitter's admission window (4*Workers files in flight) rather than
// growing a buffer. It returns the checker and cache counters summed
// over the workers, covering every file that was analyzed.
//
// The first error in input order — from a file, annotated with its
// name, or from deliver itself — stops the pool and is returned: every
// earlier file has been delivered, no later one is. Once ctx is done
// no further file starts; in-flight solver queries return within one
// check interval, and Check returns ctx's error.
func (s *Sweeper) Check(ctx context.Context, files []Source, deliver func(FileResult) error) (core.Stats, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	workers := s.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	workers = min(workers, len(files))
	if workers == 0 {
		return core.Stats{}, nil
	}

	type outcome struct {
		fr  FileResult
		err error
	}
	// failed is the smallest index known to have failed. Only strictly
	// later files are skipped, so every file before the first error is
	// analyzed and delivered; skipped files still Put an empty outcome,
	// which keeps the delivery sequence gap-free up to the failure and
	// frees each admission slot.
	var failed atomic.Int64
	failed.Store(int64(len(files)))
	fail := func(i int) {
		for {
			cur := failed.Load()
			if int64(i) >= cur || failed.CompareAndSwap(cur, int64(i)) {
				return
			}
		}
	}
	// Delivery runs on the emitter goroutine, strictly in input order;
	// firstErr and delivered need no lock because only that goroutine
	// touches them until Close returns.
	var firstErr error
	delivered := 0
	ord := emit.NewOrdered(4*workers, func(i int, o outcome) {
		if firstErr != nil {
			return
		}
		if o.err == nil && deliver != nil {
			o.err = deliver(o.fr)
		}
		if o.err != nil {
			firstErr = o.err
			fail(i)
			return
		}
		delivered++
	})

	workerStats := make([]core.Stats, workers)
	idxCh := make(chan int)
	var wg sync.WaitGroup
	for w := range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			checker := core.New(s.Options)
			st := &workerStats[w]
			for i := range idxCh {
				var o outcome
				if int64(i) <= failed.Load() {
					o.fr, o.err = s.CheckFile(ctx, checker, st, files[i].Name, files[i].Text)
					o.fr.Index = i
					if o.err != nil {
						o.err = fmt.Errorf("%s: %w", files[i].Name, o.err)
						fail(i)
					}
				}
				ord.Put(i, o)
			}
			st.Add(checker.Stats())
		}()
	}
	// Feed in input order until every file is out, ctx is done, or an
	// earlier file has failed. Every fed index is Put exactly once, so
	// the window keeps draining and Admit returns.
	for i := range files {
		if !ord.Admit(ctx.Done()) || ctx.Err() != nil || int64(i) > failed.Load() {
			break
		}
		idxCh <- i
	}
	close(idxCh)
	wg.Wait()
	ord.Close()

	var st core.Stats
	for _, ws := range workerStats {
		st.Add(ws)
	}
	if firstErr == nil && delivered < len(files) {
		// Feeding stopped on ctx before any file reported an error.
		firstErr = ctx.Err()
	}
	return st, firstErr
}

// Run sweeps the archive through the worker pool and returns the
// merged result (Stream without a per-file callback). Cancelling ctx
// shuts the pool down without deadlock — each in-flight solver query
// returns within one check interval — and Run returns ctx's error.
func (s *Sweeper) Run(ctx context.Context, pkgs []Package) (*SweepResult, error) {
	return s.Stream(ctx, pkgs, nil)
}

// RunStream is Stream with a callback that cannot fail.
func (s *Sweeper) RunStream(ctx context.Context, pkgs []Package, emitFn func(FileResult)) (*SweepResult, error) {
	if emitFn == nil {
		return s.Stream(ctx, pkgs, nil)
	}
	return s.Stream(ctx, pkgs, func(fr FileResult) error { emitFn(fr); return nil })
}

// Stream sweeps the archive and additionally calls emitFn (if non-nil)
// once per file, in archive order, as soon as the file and every
// earlier one have been checked — long before the whole archive
// finishes. The archive's files are flattened, package by package,
// into one Check over sources named "<package>_<i>.c", so memory is
// O(Workers) regardless of archive size and a slow callback
// backpressures the pool. An error from emitFn stops the sweep and is
// returned. The returned SweepResult is byte-identical to Run's for
// any worker count.
func (s *Sweeper) Stream(ctx context.Context, pkgs []Package, emitFn func(FileResult) error) (*SweepResult, error) {
	var files []Source
	var pkgOf []int
	for pi, p := range pkgs {
		for fi, src := range p.Files {
			files = append(files, Source{Name: fmt.Sprintf("%s_%d.c", p.Name, fi), Text: src})
			pkgOf = append(pkgOf, pi)
		}
	}
	acc := newAccumulator(pkgs)
	st, err := s.Check(ctx, files, func(fr FileResult) error {
		pi := pkgOf[fr.Index]
		fr.Package = pkgs[pi].Name
		acc.add(fr, pi)
		if emitFn != nil {
			return emitFn(fr)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return acc.finish(st), nil
}

// accumulator folds per-file results, delivered in archive order, into
// a SweepResult.
type accumulator struct {
	res           *SweepResult
	pkgHadReports []bool
}

func newAccumulator(pkgs []Package) *accumulator {
	return &accumulator{
		res: &SweepResult{
			Packages:        len(pkgs),
			ReportsByAlgo:   map[core.Algo]int{},
			ReportsByKind:   map[core.UBKind]int{},
			MinSetHistogram: map[int]int{},
		},
		pkgHadReports: make([]bool, len(pkgs)),
	}
}

func (a *accumulator) add(fr FileResult, pkgIdx int) {
	res := a.res
	res.Files++
	res.Functions += fr.Functions
	res.BuildTime += fr.BuildTime
	res.AnalysisTime += fr.AnalysisTime
	res.Reports += len(fr.Reports)
	if len(fr.Reports) > 0 {
		a.pkgHadReports[pkgIdx] = true
	}
	for alg, n := range core.CountByAlgo(fr.Reports) {
		res.ReportsByAlgo[alg] += n
	}
	for k, n := range core.CountByUBKind(fr.Reports) {
		res.ReportsByKind[k] += n
	}
	for sz, n := range core.MinSetSizeHistogram(fr.Reports) {
		res.MinSetHistogram[sz] += n
	}
	for _, r := range fr.Reports {
		res.ReportLog = append(res.ReportLog, FileReport{File: fr.File, Report: r})
	}
}

func (a *accumulator) finish(st core.Stats) *SweepResult {
	res := a.res
	for _, had := range a.pkgHadReports {
		if had {
			res.PackagesWithReports++
		}
	}
	res.Stats = st
	sort.SliceStable(res.ReportLog, func(i, j int) bool {
		a, b := res.ReportLog[i], res.ReportLog[j]
		if a.File != b.File {
			return a.File < b.File
		}
		if a.Report.Pos.Line != b.Report.Pos.Line {
			return a.Report.Pos.Line < b.Report.Pos.Line
		}
		if a.Report.Pos.Col != b.Report.Pos.Col {
			return a.Report.Pos.Col < b.Report.Pos.Col
		}
		return a.Report.Algo < b.Report.Algo
	})
	return res
}

// Format renders the sweep in the style of the paper's §6.5 figures.
// It is total: an empty archive renders without dividing by zero.
func (r *SweepResult) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "packages checked:        %d\n", r.Packages)
	fmt.Fprintf(&b, "packages with reports:   %d (%.1f%%)\n",
		r.PackagesWithReports, 100*float64(r.PackagesWithReports)/float64(max(1, r.Packages)))
	fmt.Fprintf(&b, "files / functions:       %d / %d\n", r.Files, r.Functions)
	fmt.Fprintf(&b, "build time / analysis:   %v / %v\n", r.BuildTime.Round(time.Millisecond), r.AnalysisTime.Round(time.Millisecond))
	st := &r.Stats
	fmt.Fprintf(&b, "solver queries:          %d (%d timeouts)\n", st.Queries, st.Timeouts)
	fmt.Fprintf(&b, "rewrite hits / fast paths: %d / %d\n", st.RewriteHits, st.FastPaths)
	fmt.Fprintf(&b, "terms blasted / blast passes: %d / %d (learnt reuse %d)\n",
		st.TermsBlasted, st.BlastPasses, st.LearntsReused)
	// ArenaBytesReused is deliberately absent here: it tracks per-process
	// allocator reuse, which varies with worker count, and this text
	// block is byte-identical for any -j. It stays available in the
	// struct and the JSON stats encodings.
	fmt.Fprintf(&b, "builder cache hits / learnts dropped: %d / %d\n",
		st.CacheHits, st.LearntsDropped)
	b.WriteString("\nreports by algorithm (Fig. 17):\n")
	for a := core.AlgoElimination; a <= core.AlgoSimplifyAlgebra; a++ {
		fmt.Fprintf(&b, "  %-34s %d\n", a.String(), r.ReportsByAlgo[a])
	}
	b.WriteString("\nreports by UB condition (Fig. 18):\n")
	for _, k := range kindOrder {
		if n := r.ReportsByKind[k]; n > 0 {
			fmt.Fprintf(&b, "  %-26s %d\n", k.String(), n)
		}
	}
	b.WriteString("\nminimal UB-set sizes (§6.5):\n")
	for s := 1; s <= 8; s++ {
		if n := r.MinSetHistogram[s]; n > 0 {
			fmt.Fprintf(&b, "  %d condition(s): %d report(s)\n", s, n)
		}
	}
	return b.String()
}
