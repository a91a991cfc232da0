package corpus

// Whole-archive sweeping. The paper ran its checker over all 8,575
// Debian Wheezy packages on a 16-core Xeon (§6.4); checking distinct
// files is embarrassingly parallel because each function gets a fresh
// builder and solver, so Sweeper fans the archive out over a two-stage
// worker pipeline:
//
//	feeder → [build workers: preprocess → parse → typecheck → IR]
//	       → [check workers: one core.Checker + bv solver each]
//	       → indexed result slice → deterministic merge
//
// Per-worker state is fully isolated — stats accumulate lock-free in
// each worker's Checker and are reduced with core.Stats.Add at the end
// — and per-file results are re-sequenced into archive order by the
// shared deterministic in-order emitter (emit.Ordered) before they
// touch the aggregate, so
// every count and report in the merged SweepResult (including the
// sorted report log) is byte-identical for any worker count. The only
// fields outside that guarantee are BuildTime and AnalysisTime, which
// are wall-clock sums over workers and vary run to run like any
// measured duration.
//
// Results stream: check workers hand each finished file to the emitter
// over a bounded channel, the emitter holds only the out-of-order files
// currently in flight (O(Workers), not O(archive)), and the aggregate —
// plus the caller's RunStream callback, if any — consumes files
// strictly in archive order.
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
	"time"

	"repro/internal/cc"
	"repro/internal/core"
	"repro/internal/emit"
	"repro/internal/ir"
)

// Sweeper configures a whole-archive run.
type Sweeper struct {
	// Options configures each per-worker checker.
	Options core.Options
	// Workers sets the number of goroutines per pipeline stage;
	// values <= 0 mean runtime.GOMAXPROCS(0). All counts and reports
	// are identical for every worker count (see the package caveats on
	// timing fields and wall-clock query timeouts).
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

// FileReport pairs a report with the archive file that produced it.
type FileReport struct {
	File   string
	Report *core.Report
}

// FileResult is one archive file's finished analysis, as delivered to
// RunStream callbacks in archive order.
type FileResult struct {
	// Index is the file's position in the archive; callbacks observe
	// strictly increasing indices 0, 1, 2, ...
	Index        int
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

// fileJob is one archive file, numbered by archive position.
type fileJob struct {
	idx    int // global file index; fixes the emit order
	pkgIdx int
	name   string
	src    string
}

// builtUnit is a fileJob after the frontend stage.
type builtUnit struct {
	fileJob
	prog      *ir.Program
	buildTime time.Duration
}

// fileResult is the check stage's output for one file.
type fileResult struct {
	idx          int
	pkgIdx       int
	name         string
	funcs        int
	reports      []*core.Report
	buildTime    time.Duration
	analysisTime time.Duration
}

func makeJobs(pkgs []Package) []fileJob {
	var jobs []fileJob
	for pi, p := range pkgs {
		for fi, src := range p.Files {
			jobs = append(jobs, fileJob{
				idx:    len(jobs),
				pkgIdx: pi,
				name:   fmt.Sprintf("%s_%d.c", p.Name, fi),
				src:    src,
			})
		}
	}
	return jobs
}

func (s *Sweeper) workerCount() int {
	if s.Workers > 0 {
		return s.Workers
	}
	return runtime.GOMAXPROCS(0)
}

// Run sweeps the archive through the parallel pipeline and returns the
// merged result (RunStream without a per-file callback). Cancelling
// ctx shuts the pipeline down without deadlock — each in-flight solver
// query returns within one check interval — and Run returns ctx's
// error.
func (s *Sweeper) Run(ctx context.Context, pkgs []Package) (*SweepResult, error) {
	return s.RunStream(ctx, pkgs, nil)
}

// RunStream sweeps the archive and additionally calls emitFn (if
// non-nil) once per file, in archive order, as soon as the file and
// every earlier one have been checked — long before the whole archive
// finishes. Results never accumulate beyond the files currently in
// flight, so memory is O(Workers) regardless of archive size. emitFn
// runs on the emitter goroutine; a slow callback backpressures the
// pipeline rather than growing a buffer. The returned SweepResult is
// byte-identical to Run's for any worker count.
//
// The in-order re-sequencing itself is emit.Ordered — the one shared
// emitter implementation — with the feeder acquiring an admission slot
// per file, so no more than 4*Workers files ever sit between the
// feeder and delivery, even when one pathological file stalls a
// checker while every other worker races ahead.
func (s *Sweeper) RunStream(ctx context.Context, pkgs []Package, emitFn func(FileResult)) (*SweepResult, error) {
	workers := s.workerCount()
	acc := newAccumulator(pkgs)
	ord := emit.NewOrdered(4*workers, func(_ int, fr fileResult) {
		acc.add(fr)
		if emitFn != nil {
			emitFn(FileResult{
				Index:        fr.idx,
				Package:      pkgs[fr.pkgIdx].Name,
				File:         fr.name,
				Functions:    fr.funcs,
				Reports:      fr.reports,
				BuildTime:    fr.buildTime,
				AnalysisTime: fr.analysisTime,
			})
		}
	})
	workerStats, err := s.runPipeline(ctx, pkgs, workers, ord.Admit, func(r fileResult) { ord.Put(r.idx, r) })
	ord.Close()
	if err != nil {
		return nil, err
	}
	return acc.finish(workerStats), nil
}

// runPipeline runs the feeder→build→check stages over the archive,
// invoking deliver from check workers (possibly concurrently) for each
// finished file. The feeder calls admit per file before feeding (the
// emitter's admission window; slots free as delivery advances),
// bounding the files in flight. It returns the per-worker checker
// stats and the first error; on error the pipeline shuts down without deadlocking (feeder and builders select on the
// stop channel — which admit also observes) and undelivered files are
// simply absent.
func (s *Sweeper) runPipeline(ctx context.Context, pkgs []Package, workers int, admit func(stop <-chan struct{}) bool, deliver func(fileResult)) ([]core.Stats, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	jobs := makeJobs(pkgs)
	workerStats := make([]core.Stats, workers) // lock-free per-worker accumulation
	cacheStats := make([]core.Stats, workers)  // per-build-worker cache traffic, same reduction

	jobCh := make(chan fileJob)
	builtCh := make(chan builtUnit, workers)
	stop := make(chan struct{})
	done := make(chan struct{})
	defer close(done)
	var firstErr error
	var errOnce sync.Once
	fail := func(err error) {
		errOnce.Do(func() {
			firstErr = err
			close(stop)
		})
	}
	// Translate context cancellation into the pipeline's own shutdown
	// mechanism exactly once: every stage already selects on stop, and
	// the checker inside each worker observes ctx directly, so a cancel
	// mid-CDCL unwinds within one solver check interval.
	go func() {
		select {
		case <-ctx.Done():
			fail(ctx.Err())
		case <-stop:
		case <-done:
		}
	}()

	var buildWG, checkWG sync.WaitGroup
	for w := 0; w < workers; w++ {
		buildWG.Add(1)
		go func(w int) {
			defer buildWG.Done()
			for j := range jobCh {
				t0 := time.Now()
				if s.Cache != nil {
					if cf, ok := s.Cache.Lookup(j.name, j.src); ok {
						cf.ReplayHit(&cacheStats[w])
						deliver(fileResult{
							idx:       j.idx,
							pkgIdx:    j.pkgIdx,
							name:      j.name,
							funcs:     cf.Functions,
							reports:   cf.Reports,
							buildTime: time.Since(t0),
						})
						continue
					}
					cacheStats[w].CacheResultMisses++
				}
				file, err := cc.Parse(j.name, j.src)
				if err != nil {
					fail(fmt.Errorf("%s: %w", j.name, err))
					return
				}
				if err := cc.Check(file); err != nil {
					fail(fmt.Errorf("%s: %w", j.name, err))
					return
				}
				prog, err := ir.Build(file)
				if err != nil {
					fail(fmt.Errorf("%s: %w", j.name, err))
					return
				}
				u := builtUnit{fileJob: j, prog: prog, buildTime: time.Since(t0)}
				select {
				case builtCh <- u:
				case <-stop:
					return
				}
			}
		}(w)

		checkWG.Add(1)
		go func(w int) {
			defer checkWG.Done()
			checker := core.New(s.Options)
			for u := range builtCh {
				funcs := len(u.prog.Funcs)
				before := checker.Stats()
				t1 := time.Now()
				reports, err := checker.CheckProgram(ctx, u.prog)
				if err != nil {
					fail(err)
					break
				}
				if s.Cache != nil {
					// Every built unit is a cache miss (hits never reach
					// this stage), so store the finished analysis. The
					// shape deltas come from the checker's own books —
					// exactly what a warm hit must replay.
					after := checker.Stats()
					s.Cache.Store(u.name, u.src, CachedFile{
						Functions: after.Functions - before.Functions,
						Blocks:    after.Blocks - before.Blocks,
						Reports:   reports,
					})
				}
				deliver(fileResult{
					idx:          u.idx,
					pkgIdx:       u.pkgIdx,
					name:         u.name,
					funcs:        funcs,
					reports:      reports,
					buildTime:    u.buildTime,
					analysisTime: time.Since(t1),
				})
			}
			workerStats[w] = checker.Stats()
		}(w)
	}

	go func() {
		defer close(jobCh)
		for _, j := range jobs {
			if !admit(stop) {
				return
			}
			select {
			case jobCh <- j:
			case <-stop:
				return
			}
		}
	}()

	buildWG.Wait()
	close(builtCh)
	checkWG.Wait()
	return append(workerStats, cacheStats...), firstErr
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

func (a *accumulator) add(fr fileResult) {
	res := a.res
	res.Files++
	res.Functions += fr.funcs
	res.BuildTime += fr.buildTime
	res.AnalysisTime += fr.analysisTime
	res.Reports += len(fr.reports)
	if len(fr.reports) > 0 {
		a.pkgHadReports[fr.pkgIdx] = true
	}
	for alg, n := range core.CountByAlgo(fr.reports) {
		res.ReportsByAlgo[alg] += n
	}
	for k, n := range core.CountByUBKind(fr.reports) {
		res.ReportsByKind[k] += n
	}
	for sz, n := range core.MinSetSizeHistogram(fr.reports) {
		res.MinSetHistogram[sz] += n
	}
	for _, r := range fr.reports {
		res.ReportLog = append(res.ReportLog, FileReport{File: fr.name, Report: r})
	}
}

func (a *accumulator) finish(workerStats []core.Stats) *SweepResult {
	res := a.res
	for _, had := range a.pkgHadReports {
		if had {
			res.PackagesWithReports++
		}
	}
	for _, ws := range workerStats {
		res.Stats.Add(ws)
	}

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
