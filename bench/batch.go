package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"fmt"
	"runtime"
	"time"

	"repro/stack"
)

// workers is the shipped parallelism: two goroutines per pipeline stage.
const workers = 2

// round is one untraced pass over one part of a workload.
type round struct {
	wall      time.Duration
	cpu       time.Duration   // the process's user + system time
	delivered []time.Duration // per file: round start until its result reached the sink
	files     [][]finding
	digest    []byte
	busy      time.Duration // archive-sweep: the sweep's own BuildTime + AnalysisTime
	alloc     uint64        // bytes allocated by the process
	slow      float64       // the host's slowdown around the round
}

// digestSink records when each result arrives and hashes the JSONL
// stream with the wall-clock fields cleared, so that equal results give
// equal digests.
type digestSink struct {
	t0    time.Time
	r     *round
	jsonl stack.Sink
}

func (s *digestSink) Emit(fr stack.FileResult) error {
	s.r.delivered = append(s.r.delivered, time.Since(s.t0))
	s.r.files = append(s.r.files, findingsOf(fr.Diagnostics))
	fr.BuildTime, fr.AnalysisTime = 0, 0
	return s.jsonl.Emit(fr)
}

func (s *digestSink) Close() error { return s.jsonl.Close() }

// runRound analyzes the corpus once through the public API with the
// shipped configuration: stack.Analyzer defaults (SSA on) and two
// workers. A fresh Analyzer per round keeps rounds independent, as
// separate invocations of the checker would be.
func runRound(ctx context.Context, b *batch) (*round, error) {
	az := stack.New(stack.WithWorkers(workers))
	r := &round{}
	h := sha256.New()
	sink := &digestSink{r: r, jsonl: stack.NewJSONLSink(h)}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	ru0 := selfUsage()
	sink.t0 = time.Now()
	if b.pkgs != nil {
		res, err := az.Sweep(ctx, b.pkgs, sink)
		if err != nil {
			return nil, err
		}
		r.busy = res.BuildTime + res.AnalysisTime
	} else {
		var emitErr error
		_, err := az.CheckSources(ctx, b.sources, func(fr stack.FileResult) {
			if emitErr == nil {
				emitErr = sink.Emit(fr)
			}
		})
		if err == nil {
			err = emitErr
		}
		if err == nil {
			err = sink.Close()
		}
		if err != nil {
			return nil, err
		}
	}
	r.wall = time.Since(sink.t0)
	ru1 := selfUsage()
	runtime.ReadMemStats(&m1)
	r.cpu = cpuTime(&ru1) - cpuTime(&ru0)
	r.alloc = m1.TotalAlloc - m0.TotalAlloc
	r.digest = h.Sum(nil)
	if len(r.files) != len(b.sources) {
		return nil, fmt.Errorf("round delivered %d of %d files", len(r.files), len(b.sources))
	}
	return r, nil
}

// batchRun measures a workload. Its rounds take the parts in turn.
type batchRun struct {
	cfg     config
	gen     func(seed int64, sc scale) []*batch
	parts   []*batch
	digests [][]byte // per part, from its first round
	next    int      // the part of the next round
	res     result
}

// part returns the part of the next round and advances.
func (br *batchRun) part() (int, *batch) {
	i := br.next % len(br.parts)
	br.next++
	return i, br.parts[i]
}

// checked runs one round on b and holds it to the known answers.
func (br *batchRun) checked(ctx context.Context, b *batch) (*round, error) {
	n := len(b.sources)
	br.res.Attempted += n
	r, err := runRound(ctx, b)
	if err != nil {
		br.res.Failed += n
		return nil, err
	}
	if err := b.check(r.files); err != nil {
		return nil, fmt.Errorf("known answer: %w", err)
	}
	return r, nil
}

// gated runs a checked round on the next part and holds it to the
// digest of that part's first round.
func (br *batchRun) gated(ctx context.Context) (*round, error) {
	i, b := br.part()
	r, err := br.checked(ctx, b)
	if err != nil {
		return nil, err
	}
	if br.digests[i] == nil {
		br.digests[i] = r.digest
	} else if !bytes.Equal(br.digests[i], r.digest) {
		return nil, fmt.Errorf("part %d: JSONL digest %x differs from its first round's %x", i, r.digest, br.digests[i])
	}
	return r, nil
}

// setup generates the parts from the seed, then generates and analyzes
// a warm-up corpus a quarter the size of the first part. Its duration is
// one set-up sample. Every set-up generates the same parts, so the
// digests carry over.
func (br *batchRun) setup(ctx context.Context) (float64, error) {
	t0 := time.Now()
	br.parts = br.gen(br.cfg.seed, br.cfg.scale)
	if br.digests == nil {
		br.digests = make([][]byte, len(br.parts))
	}
	if _, err := br.checked(ctx, br.gen(br.cfg.seed, br.cfg.scale.warmup())[0]); err != nil {
		return 0, fmt.Errorf("warm-up: %w", err)
	}
	return time.Since(t0).Seconds(), nil
}

// timed runs untraced rounds until the window closes (at least one).
// The reference runs before the first round and after each one.
func (br *batchRun) timed(ctx context.Context, window time.Duration) ([]*round, error) {
	var rounds []*round
	start, before := time.Now(), hostRef()
	for len(rounds) == 0 || time.Since(start) < window {
		r, err := br.gated(ctx)
		if err != nil {
			return nil, err
		}
		after := hostRef()
		r.slow, before = slowdown(before, after), after
		rounds = append(rounds, r)
	}
	return rounds, nil
}

// endToEnd measures the untraced metrics. Every time is divided by the
// host's slowdown around the set-up or round it comes from.
func (br *batchRun) endToEnd(ctx context.Context) (map[string]float64, error) {
	var setups []float64
	before := hostRef()
	for i := 0; i < br.cfg.scale.setups; i++ {
		s, err := br.setup(ctx)
		if err != nil {
			return nil, err
		}
		after := hostRef()
		setups, before = append(setups, s/slowdown(before, after)), after
	}
	rounds, err := br.timed(ctx, br.cfg.window)
	if err != nil {
		return nil, err
	}
	// The timings are medians over rounds, so that a slow spell of the
	// host during one round, or a slow part, moves them little.
	files, alloc := 0, uint64(0)
	var perSec, cpu, p99, slow, rawPerSec []float64
	for _, r := range rounds {
		n := float64(len(r.files))
		files += len(r.files)
		alloc += r.alloc
		perSec = append(perSec, n/r.wall.Seconds()*r.slow)
		cpu = append(cpu, ms(r.cpu)/n/r.slow)
		p99 = append(p99, quantile(msOf(r.delivered), 0.99)/r.slow)
		slow = append(slow, r.slow)
		rawPerSec = append(rawPerSec, n/r.wall.Seconds())
	}
	fmt.Printf("# %d timed rounds over %d part(s) of %d files; latency percentiles are per round\n",
		len(rounds), len(br.parts), len(br.parts[0].sources))
	fmt.Printf("# host slowdown against the reference host: median %.3f; unscaled files_per_s %.4f\n",
		median(slow), median(rawPerSec))
	return map[string]float64{
		"setup_s":           median(setups),
		"files_per_s":       median(perSec),
		"cpu_ms_per_file":   median(cpu),
		"latency_p99_ms":    median(p99),
		"alloc_mb_per_file": float64(alloc) / (1 << 20) / float64(files),
	}, nil
}

// perLayer spends the first half of the window on untraced rounds and
// the rest on traced ones (at least one of each).
func (br *batchRun) perLayer(ctx context.Context, tr *tracer) (map[string]float64, error) {
	if _, err := br.setup(ctx); err != nil {
		return nil, err
	}
	untraced, err := br.timed(ctx, br.cfg.window/2)
	if err != nil {
		return nil, err
	}
	var busy, untracedRates []float64
	for _, r := range untraced {
		busy = append(busy, r.busy.Seconds()/(r.wall.Seconds()*workers))
		untracedRates = append(untracedRates, float64(len(r.files))/r.wall.Seconds()*r.slow)
	}

	// Traced rounds go on through the parts where the untraced ones
	// stopped. Trace ids number the files of the run in order.
	var tracedRates, tracedSlow []float64
	var counts layerCounts
	tracedRounds := 0
	before := hostRef()
	for start := time.Now(); tracedRounds == 0 || time.Since(start) < br.cfg.window/2; tracedRounds++ {
		_, b := br.part()
		n := len(b.sources)
		br.res.Attempted += n
		t0 := time.Now()
		files, lc, err := tracedRound(ctx, b.sources, tr, counts.files)
		if err != nil {
			br.res.Failed += n
			return nil, err
		}
		wall := time.Since(t0)
		after := hostRef()
		slow := slowdown(before, after)
		before = after
		tracedRates = append(tracedRates, float64(n)/wall.Seconds()*slow)
		tracedSlow = append(tracedSlow, slow)
		if err := b.check(files); err != nil {
			return nil, fmt.Errorf("known answer (traced): %w", err)
		}
		counts.add(lc)
	}
	fmt.Printf("# %d untraced and %d traced rounds over %d part(s)\n", len(untraced), tracedRounds, len(br.parts))
	m := layerMetrics(tr.spans, counts, tracedRounds, median(tracedSlow))
	m["corpus.busy_frac"] = median(busy)
	ru := selfUsage()
	m["process.peak_rss_mb"] = float64(ru.Maxrss) / 1024
	m["trace.overhead_frac"] = median(untracedRates)/median(tracedRates) - 1
	return m, nil
}

// layerMetrics turns the spans and counts of traced rounds into the
// per-layer metrics of the frontend, IR and checker layers, dividing
// times by the host's slowdown. The caller adds the rest.
func layerMetrics(spans []span, c layerCounts, rounds int, slow float64) map[string]float64 {
	self := selfTimes(spans)
	var fileTime time.Duration
	for _, s := range spans {
		if s.Name == spanFile {
			fileTime += time.Duration(s.dur())
		}
	}
	files := float64(c.files)
	perFile := func(name string) float64 { return ratio(ms(self[name])/slow, files) }
	st := c.stats
	checkSelf := self[spanCheck] - self[spanSSA] // CheckProgram runs the SSA passes the twin timed
	cc := self[spanPreprocess] + self[spanParse] + self[spanTypecheck]
	perRound := func(v int64) float64 { return ratio(float64(v), float64(rounds)) }
	m := map[string]float64{
		"cc.preprocess_ms_per_file":    perFile(spanPreprocess),
		"cc.parse_ms_per_file":         perFile(spanParse),
		"cc.typecheck_ms_per_file":     perFile(spanTypecheck),
		"cc.tokens_per_file":           ratio(float64(c.tokens), files),
		"cc.time_share":                ratio(float64(cc), float64(fileTime-self[spanTwin]-self[spanSSA])),
		"ir.build_ms_per_file":         perFile(spanBuild),
		"ir.inline_ms_per_file":        perFile(spanInline),
		"ir.ssa_ms_per_file":           perFile(spanSSA),
		"ir.values_per_file":           ratio(float64(c.values), files),
		"ir.values_after_ssa_per_file": ratio(float64(c.valuesAfter), files),
		"core.check_self_ms_per_file":  ratio(ms(checkSelf)/slow, files),
		"core.ms_per_query":            ratio(ms(checkSelf)/slow, float64(st.Queries)),
		"core.queries_per_file":        ratio(float64(st.Queries), files),
		"core.fast_paths":              perRound(st.FastPaths),
		"core.timeouts":                perRound(st.Timeouts),
		"core.dom_ordered_skips":       perRound(st.DomOrderedSkips),
		"bv.terms_created_per_file":    ratio(float64(st.TermsCreated), files),
		"bv.rewrite_hit_rate":          ratio(float64(st.RewriteHits), float64(st.RewriteHits+st.TermsCreated)),
		"bv.cache_hit_rate":            ratio(float64(st.CacheHits), float64(st.CacheHits+st.TermsCreated)),
		"bv.terms_blasted_per_file":    ratio(float64(st.TermsBlasted), files),
		"bv.queries_per_blast":         ratio(float64(st.Queries), float64(st.BlastPasses)),
		"sat.learnts_reused_per_query": ratio(float64(st.LearntsReused), float64(st.Queries)),
		"sat.learnts_dropped":          perRound(st.LearntsDropped),
		"ssa.promoted_allocas":         perRound(st.PromotedAllocas),
		"ssa.gvn_hits":                 perRound(st.GVNHits + st.CrossBlockGVNHits),
		"ssa.sccp_folded_branches":     perRound(st.SCCPFoldedBranches),
		"ssa.hoisted_ub_terms":         perRound(st.HoistedUBTerms),
	}
	return m
}
