// Package stack is the public, versioned API of the STACK unstable-code
// checker reproduction (conf_sosp_WangZKS13). It wraps the internal
// pipeline — C frontend, SSA IR, word-level rewriting, incremental
// bit-vector solving, the solver-based elimination/simplification
// algorithms — behind a context-aware Analyzer that returns structured
// Diagnostic values with stable rule codes instead of preformatted
// strings.
//
// Construct an Analyzer with functional options:
//
//	az := stack.New(
//		stack.WithSolverTimeout(5*time.Second),
//		stack.WithWorkers(8),
//	)
//	res, err := az.CheckSource(ctx, "fig1.c", src)
//
// Every entry point takes a context.Context that is honored all the way
// down to the CDCL search loop: cancelling it (or letting its deadline
// expire) aborts the analysis within one solver check interval.
//
// Results can be rendered through pluggable sinks (NewTextSink,
// NewJSONLSink, NewSARIFSink) fed in archive order by the streaming
// sweep, or formatted with FormatDiagnostics, whose output is
// byte-identical to the internal checker's classic text form.
//
// Stability contract: diagnostic rule codes (RuleElimination, ...) and
// UB-condition codes (UBCodePointerOverflow, ...) are append-only —
// existing codes never change meaning or disappear — and the text
// rendering of a Diagnostic is frozen, so sinks and downstream report
// pipelines can rely on both.
package stack

import (
	"context"
	"os"
	"time"

	"repro/internal/core"
	"repro/internal/corpus"
	"repro/stack/cache"
)

// Analyzer is a configured instance of the checker. It is safe for
// concurrent use: every analysis allocates its own internal checker
// state, so one Analyzer can serve many requests (cmd/stackd holds a
// single Analyzer for the whole service).
type Analyzer struct {
	// sw is the per-file pipeline and worker pool that every
	// in-process analysis runs on, configured by the options.
	sw    corpus.Sweeper
	cache *resultCache // nil without WithCache
}

// config collects option values before the Analyzer is built.
type config struct {
	opts    core.Options
	workers int
	cache   cache.Cache
}

// Option configures an Analyzer.
type Option func(*config)

// New returns an Analyzer with the paper's default configuration
// (5-second query timeout, origin filtering, minimal UB sets,
// inlining, the SSA pass stack — see WithSSA) modified by the given
// options.
func New(options ...Option) *Analyzer {
	cfg := config{opts: core.DefaultOptions}
	for _, o := range options {
		o(&cfg)
	}
	az := &Analyzer{sw: corpus.Sweeper{Options: cfg.opts, Workers: cfg.workers}}
	if cfg.cache != nil {
		// Built after all options have applied, so the key fingerprint
		// reflects the analyzer's final configuration. Assigned to the
		// sweeper only when non-nil: a typed-nil *resultCache in the
		// interface field would make it consult a dead cache.
		az.cache = newResultCache(cfg.cache, cfg.opts)
		az.sw.Cache = az.cache
	}
	return az
}

// WithSolverTimeout bounds each solver query by a wall-clock duration
// (the paper used 5 seconds, §6.4). Zero means no per-query timeout;
// the request context's deadline still applies.
func WithSolverTimeout(d time.Duration) Option {
	return func(c *config) { c.opts.Timeout = d }
}

// WithMaxConflictsPerQuery bounds solver effort per query by a
// deterministic conflict budget. Zero means unbounded.
func WithMaxConflictsPerQuery(n int64) Option {
	return func(c *config) { c.opts.MaxConflictsPerQuery = n }
}

// WithWorkers sets the number of workers in the pool that
// CheckSources and Sweep run on, each analyzing one file at a time;
// values <= 0 mean one per CPU. Diagnostics and counts are identical
// for every worker count.
func WithWorkers(n int) Option {
	return func(c *config) { c.workers = n }
}

// WithInlining toggles the IR inlining stage (paper §4.2; on by
// default).
func WithInlining(on bool) Option {
	return func(c *config) { c.opts.Inline = on }
}

// WithMinUBSets toggles the minimal UB-condition-set computation of
// Fig. 8 (on by default). Off saves the masking loop's solver queries.
func WithMinUBSets(on bool) Option {
	return func(c *config) { c.opts.MinUBSets = on }
}

// WithOriginFilter toggles suppression of reports whose unstable
// fragment came from a macro expansion or inlined function (paper
// §4.2; on by default).
func WithOriginFilter(on bool) Option {
	return func(c *config) { c.opts.FilterOrigins = on }
}

// WithScratchSolving disables incremental solving: every query runs on
// a fresh SAT core, the differential-test reference mode. Diagnostics
// are identical either way; only the work differs.
func WithScratchSolving(on bool) Option {
	return func(c *config) { c.opts.ScratchSolve = on }
}

// WithSSA toggles the pruned-SSA pass stack run over each function
// before encoding: mem2reg promotion of non-escaping allocas, sparse
// conditional constant propagation, dominator-ordered value numbering,
// dead-store elimination, and loop-invariant UB hoisting.
//
// On by default. Diagnostics are byte-identical to the legacy pipeline
// across the synthetic corpus (the differential gate
// TestSSAVsLegacyByteIdentity, raced over worker counts); the passes
// change the work, not the verdicts — promoted loads stop encoding as
// distinct opaque solver variables, constant branch conditions die in
// the lattice instead of the SAT core, and duplicate value graphs
// hash-cons across the whole function.
// WithSSA(false) is the escape hatch and the differential reference:
// every per-pass fuzz oracle compares against it. The pass counters
// surface in Stats (PromotedAllocas through HoistedUBTerms, plus
// SSASharpened).
func WithSSA(on bool) Option {
	return func(c *config) { c.opts.SSA = on }
}

// WithLearntBudget bounds the learned clauses an incremental solving
// session carries from one query into the next: after each query the
// learnt database is trimmed toward n (locked and binary clauses
// always survive). Bounds a long session's solver memory at a small
// cost in rediscovered conflicts. Zero (the default) means unbounded;
// ignored under WithScratchSolving, where nothing outlives a query.
func WithLearntBudget(n int) Option {
	return func(c *config) { c.opts.LearntBudget = n }
}

// WithCache attaches a content-addressed result cache: before building
// IR for a source, CheckSource, CheckSources, and Sweep look up the
// SHA-256 of the source bytes combined with a canonical fingerprint of
// every result-affecting option; a hit replays the stored diagnostics
// and per-file shape stats without running the frontend or the solver,
// a miss analyzes the source and stores the finished result. Because
// hits flow through the same in-order emitter as fresh results, warm
// output is byte-identical to cold output for any worker count.
// Options that cannot affect results — WithWorkers, the sink format —
// never enter the key, so one cache serves every execution strategy.
//
// Use cache.NewMemory for an in-process LRU, cache.NewDisk for a
// persistent tier that survives restarts, or cache.NewTiered(mem,
// disk) for both. The cache may be shared between Analyzers (it is
// concurrency-safe); entries are only ever served to an Analyzer whose
// options fingerprint matches the one they were stored under. Traffic
// shows up as Stats.CacheResultHits / CacheResultMisses and in
// Analyzer.CacheStats.
func WithCache(c cache.Cache) Option {
	return func(cfg *config) { cfg.cache = c }
}

// CompilerEnv models the gcc workaround options of paper §7: each flag
// promises defined behavior for some UB kinds, removing the matching
// conditions from the well-defined program assumption.
type CompilerEnv struct {
	// WrapV is -fwrapv: signed integer arithmetic wraps.
	WrapV bool
	// NoStrictOverflow is -fno-strict-overflow: pointer arithmetic
	// wraps too.
	NoStrictOverflow bool
	// NoDeleteNullPointerChecks is -fno-delete-null-pointer-checks.
	NoDeleteNullPointerChecks bool
}

// WithCompilerEnv sets the compiler-flag environment the analysis
// assumes the code will be built under.
func WithCompilerEnv(env CompilerEnv) Option {
	return func(c *config) {
		c.opts.Flags = core.Flags{
			WrapV:                     env.WrapV,
			NoStrictOverflow:          env.NoStrictOverflow,
			NoDeleteNullPointerChecks: env.NoDeleteNullPointerChecks,
		}
	}
}

// Stats aggregates analysis effort: the quantities of the paper's
// Figure 16 plus the counters of the rewrite, incremental-solving, SSA,
// and result-cache layers. It is the internal checker's counter type,
// declared once with each counter's JSON key and Prometheus name; see
// the field documentation there. Every key of a counter that is zero
// unless SSA or a cache is on is omitempty, so a WithSSA(false),
// cacheless trailer keeps its legacy bytes.
type Stats = core.Stats

// Result is one input's finished analysis.
type Result struct {
	File        string       `json:"file"`
	Diagnostics []Diagnostic `json:"diagnostics,omitempty"`
	Stats       Stats        `json:"stats"`
}

// Source is one named C translation unit for CheckSources.
type Source struct {
	Name string
	Text string
}

// CheckSource analyzes one C source and returns its diagnostics.
// Cancelling ctx aborts the analysis within one solver check interval
// and returns ctx's error.
func (a *Analyzer) CheckSource(ctx context.Context, name, src string) (*Result, error) {
	checker := core.New(a.sw.Options)
	var st Stats
	fr, err := a.sw.CheckFile(ctx, checker, &st, name, src)
	if err != nil {
		return nil, err
	}
	st.Add(checker.Stats())
	return &Result{
		File:        name,
		Diagnostics: diagnosticsOf(fr.Reports),
		Stats:       st,
	}, nil
}

// CheckFile reads path and analyzes it as a C source.
func (a *Analyzer) CheckFile(ctx context.Context, path string) (*Result, error) {
	src, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return a.CheckSource(ctx, path, string(src))
}

// CheckSources analyzes several sources concurrently (the Workers
// option sets the pool size) and calls emit once per source, in input
// order, as soon as that source and every earlier one have finished.
// It runs on the same worker pool as the archive sweep
// (corpus.Sweeper.Check), with O(Workers) results buffered at any
// moment. Diagnostics are identical for every worker count.
//
// On the first error (in input order) emission stops and the error,
// annotated with the source name, is returned; sources after the
// failing one are skipped, and once ctx is done no further source
// starts. The returned Stats cover the sources that were analyzed.
func (a *Analyzer) CheckSources(ctx context.Context, srcs []Source, emit func(FileResult)) (Stats, error) {
	files := make([]corpus.Source, len(srcs))
	for i, s := range srcs {
		files[i] = corpus.Source(s)
	}
	return a.sw.Check(ctx, files, func(fr corpus.FileResult) error {
		if emit != nil {
			emit(FileResult{
				Index:       fr.Index,
				File:        fr.File,
				Diagnostics: diagnosticsOf(fr.Reports),
			})
		}
		return nil
	})
}
