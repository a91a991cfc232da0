package repro

// One benchmark per table/figure of the paper's evaluation. Each
// benchmark both measures the work and emits the reproduced quantities
// as custom metrics, so `go test -bench=. -benchmem` regenerates the
// paper's numbers. EXPERIMENTS.md maps each benchmark to its figure.
// Every benchmark runs the shipped configuration, core.DefaultOptions;
// a variant copies it and changes one field. The reproduced counts and
// the exact work of the `make bench-smoke` set are pinned in
// pinned_test.go.

import (
	"context"
	"fmt"
	"runtime"
	"testing"
	"time"

	"repro/internal/cc"
	"repro/internal/compilers"
	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/ir"
	"repro/stack"
	"repro/stack/cache"
)

func mustCheck(b *testing.B, checker *core.Checker, name, src string) []*core.Report {
	b.Helper()
	f, err := cc.Parse(name, src)
	if err != nil {
		b.Fatal(err)
	}
	if err := cc.Check(f); err != nil {
		b.Fatal(err)
	}
	p, err := ir.Build(f)
	if err != nil {
		b.Fatal(err)
	}
	reports, err := checker.CheckProgram(context.Background(), p)
	if err != nil {
		b.Fatal(err)
	}
	return reports
}

// BenchmarkFig1PointerOverflowCheck: the paper's opening example —
// detecting the unstable Figure 1 check end to end (frontend through
// solver).
func BenchmarkFig1PointerOverflowCheck(b *testing.B) {
	src := `
int parse(char *buf, char *buf_end, unsigned int len) {
	if (buf + len >= buf_end)
		return -1;
	if (buf + len < buf)
		return -1;
	return 0;
}
`
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		checker := core.New(core.DefaultOptions)
		reports := mustCheck(b, checker, "fig1.c", src)
		if len(reports) == 0 {
			b.Fatal("Figure 1 check not detected")
		}
	}
}

// BenchmarkFig2NullCheck: CVE-2009-1897 (Figure 2), elimination via
// the null-dereference UB condition.
func BenchmarkFig2NullCheck(b *testing.B) {
	src := `
struct sock { int fd; };
struct tun_struct { struct sock *sk; };
int poll(struct tun_struct *tun) {
	struct sock *sk = tun->sk;
	if (!tun)
		return -22;
	return sk->fd;
}
`
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		checker := core.New(core.DefaultOptions)
		reports := mustCheck(b, checker, "fig2.c", src)
		if len(reports) == 0 {
			b.Fatal("Figure 2 check not detected")
		}
	}
}

// BenchmarkFig4CompilerSurvey regenerates the full Figure 4 matrix —
// 16 compiler models × 6 examples × up to 4 optimization levels of
// real optimizer runs — and verifies all 96 cells.
func BenchmarkFig4CompilerSurvey(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := compilers.Survey()
		if err != nil {
			b.Fatal(err)
		}
		for _, m := range compilers.Models {
			row := rows[m.Name]
			for e := range compilers.Examples {
				if row[e] != m.FoldLevels[compilers.Examples[e].Opt] {
					b.Fatalf("%s column %d deviates from the paper", m.Name, e)
				}
			}
		}
	}
	b.ReportMetric(float64(len(compilers.Models)), "compilers")
	b.ReportMetric(float64(len(compilers.Models)*len(compilers.Examples)), "cells-verified")
}

// BenchmarkFig9BugCorpus runs the checker over the reconstructed
// 160-bug corpus (24 system rows) and verifies every planted bug is
// detected with its UB kind.
func BenchmarkFig9BugCorpus(b *testing.B) {
	sources := corpus.GenerateFig9()
	var detected, reports int
	allocs := measure(b, func() {
		detected, reports = 0, 0
		checker := core.New(core.DefaultOptions)
		for _, ss := range sources {
			rs := mustCheck(b, checker, ss.System+".c", ss.Source)
			reports += len(rs)
			byFunc := map[string][]*core.Report{}
			for _, r := range rs {
				byFunc[r.Func] = append(byFunc[r.Func], r)
			}
			for _, bug := range ss.Bugs {
				for _, r := range byFunc[bug.FuncName] {
					if r.HasUB(bug.Kind) {
						detected++
						break
					}
				}
			}
		}
		if detected != 160 {
			b.Fatalf("detected %d/160 bugs", detected)
		}
	})
	checkPinned(b, allocs, map[string]any{"figure": map[string]int{"bugs-found": detected, "reports": reports}})
	b.ReportMetric(float64(detected), "bugs-found")
	b.ReportMetric(float64(reports), "reports")
}

// sweepOnce runs a synthetic-archive sweep and returns the result.
func sweepOnce(b *testing.B, cfg corpus.ArchiveConfig) *corpus.SweepResult {
	b.Helper()
	pkgs := corpus.GenerateArchive(cfg)
	res, err := corpus.Sweep(context.Background(), pkgs, core.DefaultOptions)
	if err != nil {
		b.Fatal(err)
	}
	return res
}

// BenchmarkFig16Kerberos / Postgres / Linux reproduce the Figure 16
// performance rows: build time, analysis time, files, queries, and
// timeouts for three package profiles (scaled; see EXPERIMENTS.md).
// Kerberos, the profile `make bench-smoke` runs, also pins its whole
// Stats.
func BenchmarkFig16Kerberos(b *testing.B) {
	res, figure, allocs := benchFig16(b, 70, 6, 1)
	checkPinned(b, allocs, map[string]any{"figure": figure, "stats": res.Stats})
}

// BenchmarkFig16Postgres is the Postgres-sized profile.
func BenchmarkFig16Postgres(b *testing.B) {
	_, figure, allocs := benchFig16(b, 77, 6, 2)
	checkPinned(b, allocs, map[string]any{"figure": figure})
}

// BenchmarkFig16Linux is the Linux-kernel-sized profile.
func BenchmarkFig16Linux(b *testing.B) {
	_, figure, allocs := benchFig16(b, 280, 8, 3)
	checkPinned(b, allocs, map[string]any{"figure": figure})
}

// benchFig16 sweeps one profile and returns the result, its Figure 16
// counts and the allocs/op of the sweep.
func benchFig16(b *testing.B, files, funcs int, seed int64) (*corpus.SweepResult, map[string]int64, float64) {
	cfg := corpus.ArchiveConfig{
		Packages: 1, FilesPerPackage: files, FuncsPerFile: funcs,
		UnstableFraction: 1, Seed: seed,
	}
	var res *corpus.SweepResult
	allocs := measure(b, func() { res = sweepOnce(b, cfg) })
	b.ReportMetric(float64(res.Files), "files")
	b.ReportMetric(float64(res.Stats.Queries), "queries")
	b.ReportMetric(float64(res.Stats.Timeouts), "query-timeouts")
	b.ReportMetric(res.BuildTime.Seconds(), "build-sec")
	b.ReportMetric(res.AnalysisTime.Seconds(), "analysis-sec")
	b.ReportMetric(float64(res.Stats.RewriteHits), "rewrite-hits")
	figure := map[string]int64{"files": int64(res.Files), "queries": res.Stats.Queries, "query-timeouts": res.Stats.Timeouts}
	return res, figure, allocs
}

// BenchmarkSweepParallel measures the worker-pool sweep pipeline
// against a serial (Workers=1) baseline on the same archive, emitting
// the parallel speedup and the word-level rewrite layer's hit rate
// (rewrites per term-construction). Results are byte-identical across
// worker counts — only the wall clock changes.
func BenchmarkSweepParallel(b *testing.B) {
	cfg := corpus.ArchiveConfig{
		Packages: 1, FilesPerPackage: 64, FuncsPerFile: 6,
		UnstableFraction: 1, Seed: 16,
	}
	pkgs := corpus.GenerateArchive(cfg)
	opts := core.DefaultOptions

	// Serial baseline: best of two runs, so first-run warmup costs
	// (allocator growth, cold caches) don't inflate the speedup.
	var serial time.Duration
	for i := 0; i < 2; i++ {
		t0 := time.Now()
		if _, err := (&corpus.Sweeper{Options: opts, Workers: 1}).Run(context.Background(), pkgs); err != nil {
			b.Fatal(err)
		}
		if d := time.Since(t0); i == 0 || d < serial {
			serial = d
		}
	}

	workers := runtime.GOMAXPROCS(0)
	sweeper := &corpus.Sweeper{Options: opts, Workers: workers}
	var res *corpus.SweepResult
	allocs := measure(b, func() {
		r, err := sweeper.Run(context.Background(), pkgs)
		if err != nil {
			b.Fatal(err)
		}
		res = r
	})
	checkPinned(b, allocs, map[string]any{"stats": res.Stats})
	perOp := b.Elapsed() / time.Duration(b.N)
	b.ReportMetric(serial.Seconds()/perOp.Seconds(), "speedup-vs-serial")
	st := res.Stats
	b.ReportMetric(float64(st.RewriteHits)/float64(st.RewriteHits+st.TermsCreated), "rewrite-hit-rate")
	// Fraction of term constructions answered by the hash-consing table;
	// AC-chain canonicalization raises this by folding commuted chains
	// onto one node.
	b.ReportMetric(float64(st.CacheHits)/float64(st.CacheHits+st.TermsCreated), "cache-hit-rate")
	b.ReportMetric(float64(st.Queries), "queries")
	b.ReportMetric(float64(workers), "workers")
}

// BenchmarkWarmSweep measures the content-addressed result cache on a
// repeated archive sweep: one cold sweep populates the cache, then the
// timed iterations re-sweep the identical archive and must be answered
// entirely from it. The benchmark fails — not merely regresses — if
// any warm file misses or the warm sweep does any solver work; its
// files, reports, cache hits and misses, and queries are pinned.
// warm-speedup (cold wall clock over warm) is the headline payoff and
// is reported informationally: it depends on the machine, while the
// counts do not.
func BenchmarkWarmSweep(b *testing.B) {
	pkgs := corpus.GenerateArchive(corpus.DefaultArchive)
	stackPkgs := make([]stack.Package, len(pkgs))
	for i, p := range pkgs {
		stackPkgs[i] = stack.Package{Name: p.Name, Files: p.Files}
	}
	az := stack.New(stack.WithCache(cache.NewMemory(64 << 20)))
	ctx := context.Background()

	t0 := time.Now()
	coldRes, err := az.Sweep(ctx, stackPkgs, nil)
	if err != nil {
		b.Fatal(err)
	}
	cold := time.Since(t0)
	if coldRes.CacheResultHits != 0 {
		b.Fatalf("cold sweep had %d cache hits", coldRes.CacheResultHits)
	}

	b.ReportAllocs()
	var res *stack.SweepResult
	allocs := measure(b, func() {
		r, err := az.Sweep(ctx, stackPkgs, nil)
		if err != nil {
			b.Fatal(err)
		}
		res = r
	})

	files := int64(res.Files)
	if res.CacheResultHits != files || res.CacheResultMisses != 0 {
		b.Fatalf("warm sweep hits=%d misses=%d, want %d/0", res.CacheResultHits, res.CacheResultMisses, files)
	}
	if res.Queries != 0 {
		b.Fatalf("warm sweep issued %d solver queries, want 0", res.Queries)
	}
	if res.Reports != coldRes.Reports {
		b.Fatalf("warm reports %d != cold %d", res.Reports, coldRes.Reports)
	}
	checkPinned(b, allocs, map[string]any{"counts": map[string]int64{
		"files": files, "reports": int64(res.Reports), "queries": res.Queries,
		"cacheResultHits": res.CacheResultHits, "cacheResultMisses": res.CacheResultMisses,
	}})
	warm := b.Elapsed() / time.Duration(b.N)
	b.ReportMetric(float64(res.CacheResultHits)/float64(files), "warm-hit-rate")
	b.ReportMetric(cold.Seconds()/warm.Seconds(), "warm-speedup")
	b.ReportMetric(float64(files), "files")
	b.ReportMetric(float64(res.Reports), "reports")
}

// BenchmarkIncrementalVsScratch quantifies the incremental solving
// subsystem on the Figure 9 corpus: per-function bv.Session reuse
// (blast the shared encoding once, answer the checker's query pairs
// and masking loops under assumptions, answer what it can from stored
// satisfying assignments) against the scratch reference that rebuilds
// solver and CNF for every query. The verdicts are byte-identical
// (TestSweepIncrementalVsScratch); this benchmark reports the effort
// gap — queries amortized per blast pass, queries answered from stored
// assignments, learned clauses reused, and total allocations — and
// fails if incrementality stops paying for itself.
func BenchmarkIncrementalVsScratch(b *testing.B) {
	sources := corpus.GenerateFig9()
	run := func(scratch bool) core.Stats {
		opts := core.DefaultOptions
		opts.ScratchSolve = scratch
		checker := core.New(opts)
		for _, ss := range sources {
			mustCheck(b, checker, ss.System+".c", ss.Source)
		}
		return checker.Stats()
	}

	allocScratch := testing.AllocsPerRun(1, func() { run(true) })
	allocInc := testing.AllocsPerRun(1, func() { run(false) })

	b.ReportAllocs()
	var st core.Stats
	allocs := measure(b, func() { st = run(false) })
	stScratch := run(true)
	checkPinned(b, allocs, map[string]any{"incremental": st, "scratch": stScratch})

	// SAT-core queries only: fast-path queries never blast regardless
	// of mode, so they would flatter the ratio.
	satQueries := st.Queries - st.FastPaths
	qpbInc := float64(satQueries) / float64(max(int64(1), st.BlastPasses))
	qpbScratch := float64(stScratch.Queries-stScratch.FastPaths) /
		float64(max(int64(1), stScratch.BlastPasses))
	queriesPerFunc := float64(satQueries) / float64(max(int64(1), int64(st.Functions)))

	// The subsystem's contract: each blast pass is amortized over at
	// least two queries on average (one shared encoding serving a whole
	// query pair or masking loop), and skipping the per-query rebuild
	// measurably cuts allocations.
	if queriesPerFunc < 2 {
		b.Fatalf("only %.2f solver queries per function; corpus exercises no query pairs", queriesPerFunc)
	}
	if qpbInc < 2 {
		b.Fatalf("incremental sessions amortize only %.2f queries per blast pass, want >= 2", qpbInc)
	}
	if allocInc >= allocScratch {
		b.Fatalf("incremental solving allocates more than scratch (%.0f >= %.0f)", allocInc, allocScratch)
	}

	// The SAT-core queries that actually searched, per blast pass.
	satCorePerBlast := float64(satQueries-st.WitnessHits) / float64(max(int64(1), st.BlastPasses))

	b.ReportMetric(qpbInc, "queries-per-blast")
	b.ReportMetric(qpbScratch, "queries-per-blast-scratch")
	b.ReportMetric(satCorePerBlast, "sat-core-queries-per-blast")
	b.ReportMetric(float64(st.WitnessHits), "witness-hits")
	b.ReportMetric(queriesPerFunc, "queries-per-func")
	b.ReportMetric(float64(st.LearntsReused), "learnts-reused")
	b.ReportMetric(float64(st.TermsBlasted), "terms-blasted")
	b.ReportMetric(float64(stScratch.TermsBlasted), "terms-blasted-scratch")
	b.ReportMetric(allocScratch/allocInc, "alloc-ratio-scratch-vs-inc")
}

// BenchmarkFig17ReportsByAlgorithm reproduces the Figure 17 breakdown:
// reports per algorithm over the synthetic Debian-style archive.
func BenchmarkFig17ReportsByAlgorithm(b *testing.B) {
	var res *corpus.SweepResult
	allocs := measure(b, func() { res = sweepOnce(b, corpus.DefaultArchive) })
	checkPinned(b, allocs, map[string]any{"figure": map[string]int{
		"elimination":    res.ReportsByAlgo[core.AlgoElimination],
		"boolean-oracle": res.ReportsByAlgo[core.AlgoSimplifyBool],
		"algebra-oracle": res.ReportsByAlgo[core.AlgoSimplifyAlgebra],
	}})
	b.ReportMetric(float64(res.ReportsByAlgo[core.AlgoElimination]), "elimination")
	b.ReportMetric(float64(res.ReportsByAlgo[core.AlgoSimplifyBool]), "boolean-oracle")
	b.ReportMetric(float64(res.ReportsByAlgo[core.AlgoSimplifyAlgebra]), "algebra-oracle")
	b.ReportMetric(float64(res.PackagesWithReports)/float64(res.Packages)*100, "pct-pkgs-with-reports")
}

// BenchmarkFig18ReportsByUBKind reproduces the Figure 18 breakdown:
// reports per UB condition over the same archive; null-pointer
// dereference must dominate as in the paper.
func BenchmarkFig18ReportsByUBKind(b *testing.B) {
	var res *corpus.SweepResult
	allocs := measure(b, func() { res = sweepOnce(b, corpus.DefaultArchive) })
	maxKind, maxN := core.UBKind(0), -1
	for k, n := range res.ReportsByKind {
		if n > maxN {
			maxKind, maxN = k, n
		}
	}
	if maxKind != core.UBNullDeref {
		b.Fatalf("dominant kind %v, want null dereference (Fig. 18)", maxKind)
	}
	checkPinned(b, allocs, map[string]any{"figure": map[string]int{
		"null-deref": res.ReportsByKind[core.UBNullDeref],
		"buffer":     res.ReportsByKind[core.UBBufferOverflow],
		"signed-int": res.ReportsByKind[core.UBSignedOverflow],
		"pointer":    res.ReportsByKind[core.UBPointerOverflow],
	}})
	b.ReportMetric(float64(res.ReportsByKind[core.UBNullDeref]), "null-deref")
	b.ReportMetric(float64(res.ReportsByKind[core.UBBufferOverflow]), "buffer")
	b.ReportMetric(float64(res.ReportsByKind[core.UBSignedOverflow]), "signed-int")
	b.ReportMetric(float64(res.ReportsByKind[core.UBPointerOverflow]), "pointer")
}

// BenchmarkSec65MinimalUBSets reproduces the §6.5 minimal-set
// statistic: most reports have a single UB condition in their minimal
// set (paper: 69,301 of ~71,880).
func BenchmarkSec65MinimalUBSets(b *testing.B) {
	var res *corpus.SweepResult
	allocs := measure(b, func() { res = sweepOnce(b, corpus.DefaultArchive) })
	single, multi := res.MinSetHistogram[1], 0
	for s, n := range res.MinSetHistogram {
		if s > 1 {
			multi += n
		}
	}
	if single <= multi {
		b.Fatalf("single-condition sets (%d) should dominate multi (%d)", single, multi)
	}
	checkPinned(b, allocs, map[string]any{"figure": map[string]int{"single-cond-reports": single, "multi-cond-reports": multi}})
	b.ReportMetric(float64(single), "single-cond-reports")
	b.ReportMetric(float64(multi), "multi-cond-reports")
}

// BenchmarkSec66Completeness runs the ten-test §6.6 benchmark; the
// checker must find exactly the seven the paper reports.
func BenchmarkSec66Completeness(b *testing.B) {
	var found int
	allocs := measure(b, func() {
		found = 0
		checker := core.New(core.DefaultOptions)
		for _, tc := range corpus.CompletenessSuite {
			reports := mustCheck(b, checker, "c.c", tc.Source)
			det := false
			for _, r := range reports {
				if tc.Expected && r.HasUB(tc.Kind) {
					det = true
				}
			}
			if det {
				found++
			}
		}
		if found != 7 {
			b.Fatalf("found %d/10, paper reports 7/10", found)
		}
	})
	checkPinned(b, allocs, map[string]any{"figure": map[string]int{"found-of-10": found}})
	b.ReportMetric(float64(found), "found-of-10")
}

// BenchmarkAblationNoMinUBSets measures the cost of the Fig. 8
// minimal-set computation by toggling it off (ablation for the
// DESIGN.md design-choice index).
func BenchmarkAblationNoMinUBSets(b *testing.B) {
	sources := corpus.GenerateFig9()
	opts := core.DefaultOptions
	opts.MinUBSets = false
	for i := 0; i < b.N; i++ {
		checker := core.New(opts)
		for _, ss := range sources {
			mustCheck(b, checker, ss.System+".c", ss.Source)
		}
	}
}

// BenchmarkAblationNoInline measures checking without the §4.2
// inlining stage.
func BenchmarkAblationNoInline(b *testing.B) {
	sources := corpus.GenerateFig9()
	opts := core.DefaultOptions
	opts.Inline = false
	for i := 0; i < b.N; i++ {
		checker := core.New(opts)
		for _, ss := range sources {
			mustCheck(b, checker, ss.System+".c", ss.Source)
		}
	}
}

// BenchmarkSec21ArchShiftSurvey regenerates the §2.1 architectural
// shift-behavior table with the C* evaluator (x86 vs ARM vs PowerPC).
func BenchmarkSec21ArchShiftSurvey(b *testing.B) {
	src := `int f(int x, int y) { return x << y; }`
	file, err := cc.Parse("s.c", src)
	if err != nil {
		b.Fatal(err)
	}
	if err := cc.Check(file); err != nil {
		b.Fatal(err)
	}
	prog, err := ir.Build(file)
	if err != nil {
		b.Fatal(err)
	}
	fn := prog.Lookup("f")
	want := map[[2]uint64]map[ir.Arch]uint64{
		{1, 32}: {ir.ArchX86: 1, ir.ArchARM: 0, ir.ArchPPC: 0},
		{1, 64}: {ir.ArchX86: 1, ir.ArchARM: 0, ir.ArchPPC: 1},
	}
	for i := 0; i < b.N; i++ {
		for in, per := range want {
			for arch, expect := range per {
				r, err := ir.Exec(fn, in[:], ir.ExecOptions{Arch: arch})
				if err != nil {
					b.Fatal(err)
				}
				if r.Ret != expect {
					b.Fatalf("1<<%d on %v = %d, want %d", in[1], arch, r.Ret, expect)
				}
			}
		}
	}
}

// ssaChainSources generates a chain-heavy, multi-block corpus built
// around address-taken scalars: every function seeds an accumulator,
// takes its address, and re-reads `*p` across branch, loop, and exit
// blocks with no intervening store. The legacy encoder models each of
// those loads as a fresh opaque solver variable, so the structurally
// identical chains the blocks build on top of them never share terms;
// the SSA pass stack resolves every load to the one reaching
// definition and the hash-consing builder folds the cross-block chains
// onto single nodes. The sharing is deliberately cross-block: GVN only
// merges within a block, so this is the promotion payoff, not the
// numbering payoff.
type ssaChainSource struct {
	Name, Text string
}

func ssaChainSources(n int) []ssaChainSource {
	srcs := make([]ssaChainSource, n)
	for i := range srcs {
		k1, k2, k3 := i%7+2, i%11+3, i%5+1
		// Each arm reads *p once into t and feeds it to the same long
		// mix chain. The reads have different reaching load variables
		// under the legacy encoder, so every arm rebuilds the entire
		// chain from scratch; promotion resolves all three t's to the
		// one reaching definition, making the second and third arms
		// pure hash-consing hits.
		chain := fmt.Sprintf(
			"((((((t ^ a) & (t | %d)) ^ (t & b)) | (t ^ %d)) & ((t | a) ^ (t & %d))) ^ ((t & %d) | (t ^ b))) ^ (((t | %d) & (t ^ a)) | ((t & %d) ^ (t | b)))",
			k1, k2, k3, k2+k3, k1+k2, k1+k3)
		srcs[i] = ssaChainSource{
			Name: fmt.Sprintf("chain%02d.c", i),
			Text: fmt.Sprintf(`
int chain%02d(int a, int b, char *buf, char *buf_end, unsigned int len) {
	/* Scalar arithmetic prologue: a well-definedness assumption that is
	   identical with and without SSA, so the two modes differ only in
	   how they encode the pointer chains below. */
	int w = a * %d + b;
	w = w + (a ^ %d);
	w = w * 3 + (b & %d);
	w = w + (a | 1);
	w = w * 5 + b;
	int acc = w + a;
	int *p = &acc;
	int u = (a ^ %d) + (a ^ %d); /* same-block duplicate: value numbering fodder */
	int r = 0;
	if (a > b) {
		int t = *p;
		r = (%s) ^ a;
	} else if (b > 0) {
		int t = *p;
		r = (%s) ^ b;
	} else {
		int t = *p;
		r = (%s) | 1;
	}
	if (buf + len >= buf_end)
		return -1;
	if (buf + len < buf)
		return -1; /* unstable: pointer overflow is undefined */
	return (r ^ *p) + u + w;
}
`, i, k1, k2, k3, k2, k2, chain, chain, chain),
		}
	}
	return srcs
}

// BenchmarkSSAChainHeavy is the SSA pass stack's reason to exist,
// measured: the same chain-heavy corpus checked with and without
// Options.SSA. The benchmark fails — not merely regresses — unless SSA
// strictly lowers the terms the solver blasts and strictly raises the
// hash-consing cache-hit rate; the differential gates elsewhere
// guarantee the verdicts are identical, so this is pure effort
// reduction. Both Stats are pinned, so blast-reduction (legacy blasted
// terms over SSA blasted terms) is gated exactly.
func BenchmarkSSAChainHeavy(b *testing.B) {
	srcs := ssaChainSources(24)
	run := func(ssa bool) core.Stats {
		opts := core.DefaultOptions
		opts.SSA = ssa
		checker := core.New(opts)
		for _, s := range srcs {
			mustCheck(b, checker, s.Name, s.Text)
		}
		return checker.Stats()
	}

	legacy := run(false)
	var st core.Stats
	allocs := measure(b, func() { st = run(true) })
	checkPinned(b, allocs, map[string]any{"ssa": st, "legacy": legacy})

	if st.TermsBlasted >= legacy.TermsBlasted {
		b.Fatalf("SSA did not reduce blasted terms: legacy %d, ssa %d", legacy.TermsBlasted, st.TermsBlasted)
	}
	rate := func(s core.Stats) float64 {
		return float64(s.CacheHits) / float64(s.CacheHits+s.TermsCreated)
	}
	if rate(st) <= rate(legacy) {
		b.Fatalf("SSA did not raise the cache-hit rate: legacy %.4f, ssa %.4f", rate(legacy), rate(st))
	}
	if st.GVNHits == 0 || st.PromotedAllocas == 0 {
		b.Fatalf("passes idle on their own corpus: %+v", st)
	}

	b.ReportMetric(float64(st.TermsBlasted), "terms-blasted")
	b.ReportMetric(float64(legacy.TermsBlasted), "terms-blasted-legacy")
	b.ReportMetric(rate(st), "cache-hit-rate")
	b.ReportMetric(rate(legacy), "cache-hit-rate-legacy")
	b.ReportMetric(float64(legacy.TermsBlasted)/float64(st.TermsBlasted), "blast-reduction")
	b.ReportMetric(float64(st.PromotedAllocas), "promoted-allocas")
	b.ReportMetric(float64(st.GVNHits), "gvn-hits")
	b.ReportMetric(float64(st.Queries), "queries")
	b.ReportMetric(float64(st.Queries)/float64(len(srcs)), "queries-per-file")
}

// sccpBranchSources generates a branch-heavy loop corpus for the
// global-analysis passes: every function runs a do-while whose first
// statement is loop-varying (so the block's report anchor stays
// put), followed by loop-invariant UB-carrying computations (a signed
// multiply and a shift — hoisting candidates), and a region guarded
// by a loop-carried constant flag that SCCP proves never executes.
// The legacy pipeline pays solver queries for every UB site in the
// dead region; SCCP folds the guard, the region's blocks lose their
// executable in-edge, and the constant-decidable queries die in the
// rewrite layer before blasting.
func sccpBranchSources(n int) []ssaChainSource {
	srcs := make([]ssaChainSource, n)
	for i := range srcs {
		k1, k2, k3 := i%13+3, i%5+1, i%9+2
		srcs[i] = ssaChainSource{
			Name: fmt.Sprintf("sccp%02d.c", i),
			Text: fmt.Sprintf(`
int sccp%02d(int n, int a, int b) {
	int flag = 0;
	int dead = 0;
	int s = a;
	int i = 0;
	do {
		s = s + b;              /* loop-varying: keeps the header anchor */
		s = s + a * %d;         /* invariant signed multiply: hoisted */
		s = s ^ (a << %d);      /* invariant shift: hoisted */
		if (flag) {
			dead = dead + b / n;  /* SCCP-dead: the guard folds to false */
			dead = dead * %d + a * b;
			dead = dead << n;
		}
		i = i + 1;
	} while (i < n);
	return s + dead;
}
`, i, k1, k2, k3),
		}
	}
	return srcs
}

// BenchmarkSCCPBranchHeavy measures the global-analysis suite on its
// own corpus: loop-carried-constant guards that SCCP folds, dead
// regions that lose their executable in-edge, and loop-invariant
// UB-carrying computations that hoisting lifts into the preheader.
// The benchmark fails — not merely regresses — unless both passes
// fire and SSA strictly lowers solver queries versus the legacy
// pipeline. Both Stats are pinned, so sccp-folded-branches,
// hoisted-ub-terms and query-reduction are gated exactly.
func BenchmarkSCCPBranchHeavy(b *testing.B) {
	srcs := sccpBranchSources(24)
	run := func(ssa bool) core.Stats {
		opts := core.DefaultOptions
		opts.SSA = ssa
		checker := core.New(opts)
		for _, s := range srcs {
			mustCheck(b, checker, s.Name, s.Text)
		}
		return checker.Stats()
	}

	legacy := run(false)
	var st core.Stats
	allocs := measure(b, func() { st = run(true) })
	checkPinned(b, allocs, map[string]any{"ssa": st, "legacy": legacy})

	if st.SCCPFoldedBranches == 0 {
		b.Fatalf("SCCP folded no branches on its own corpus: %+v", st)
	}
	if st.SCCPUnreachableBlocks == 0 {
		b.Fatalf("SCCP found no unreachable blocks though every guard is a loop-carried constant: %+v", st)
	}
	if st.HoistedUBTerms == 0 {
		b.Fatalf("hoisting moved no UB terms though every loop has invariant signed arithmetic: %+v", st)
	}
	if st.Queries >= legacy.Queries {
		b.Fatalf("SSA did not reduce queries: legacy %d, ssa %d", legacy.Queries, st.Queries)
	}

	b.ReportMetric(float64(st.SCCPFoldedBranches), "sccp-folded-branches")
	b.ReportMetric(float64(st.SCCPUnreachableBlocks), "sccp-unreachable-blocks")
	b.ReportMetric(float64(st.HoistedUBTerms), "hoisted-ub-terms")
	b.ReportMetric(float64(st.Queries), "queries")
	b.ReportMetric(float64(legacy.Queries), "queries-legacy")
	b.ReportMetric(float64(legacy.Queries)/float64(st.Queries), "query-reduction")
	b.ReportMetric(float64(st.Queries)/float64(len(srcs)), "queries-per-file")
}
