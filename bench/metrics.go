package main

import (
	"fmt"
	"math"
	"sort"
	"syscall"
	"time"
)

// metricDef names one metric and its unit. The two tables below are the
// metrics BENCHMARK.json declares; the smoke test holds them equal.
type metricDef struct {
	name, unit string
}

// endToEnd is what a user of the checker sees; a run with -trace 0
// reports exactly these.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"files_per_s", "files/s"},
	{"cpu_ms_per_file", "ms"},
	{"latency_p99_ms", "ms"},
	{"alloc_mb_per_file", "MB"},
}

// perLayer is what a run with -trace 1 reports. A layer that is not on
// a workload's path reads 0 there: corpus.busy_frac outside
// archive-sweep.
var perLayer = []metricDef{
	{"cc.preprocess_ms_per_file", "ms"},
	{"cc.parse_ms_per_file", "ms"},
	{"cc.typecheck_ms_per_file", "ms"},
	{"cc.tokens_per_file", "count"},
	{"cc.time_share", "fraction"},
	{"ir.build_ms_per_file", "ms"},
	{"ir.inline_ms_per_file", "ms"},
	{"ir.ssa_ms_per_file", "ms"},
	{"ir.values_per_file", "count"},
	{"ir.values_after_ssa_per_file", "count"},
	{"core.check_self_ms_per_file", "ms"},
	{"core.ms_per_query", "ms"},
	{"core.queries_per_file", "count"},
	{"core.fast_paths", "count"},
	{"core.timeouts", "count"},
	{"core.dom_ordered_skips", "count"},
	{"bv.terms_created_per_file", "count"},
	{"bv.rewrite_hit_rate", "fraction"},
	{"bv.cache_hit_rate", "fraction"},
	{"bv.terms_blasted_per_file", "count"},
	{"bv.queries_per_blast", "ratio"},
	{"sat.learnts_reused_per_query", "ratio"},
	{"sat.learnts_dropped", "count"},
	{"ssa.promoted_allocas", "count"},
	{"ssa.gvn_hits", "count"},
	{"ssa.sccp_folded_branches", "count"},
	{"ssa.hoisted_ub_terms", "count"},
	{"corpus.busy_frac", "fraction"},
	{"process.peak_rss_mb", "MB"},
	{"trace.overhead_frac", "fraction"},
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last line of output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// fill builds the metrics map for defs from values, failing on a
// missing or non-finite value.
func fill(defs []metricDef, values map[string]float64) (map[string]metric, error) {
	out := make(map[string]metric, len(defs))
	for _, d := range defs {
		v, ok := values[d.name]
		if !ok {
			return nil, fmt.Errorf("metric %s was not measured", d.name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("metric %s is %v", d.name, v)
		}
		out[d.name] = metric{Value: v, Unit: d.unit}
	}
	return out, nil
}

// quantile interpolates linearly between the closest ranks of xs, which
// it sorts.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	pos := q * float64(len(xs)-1)
	lo := int(pos)
	if lo+1 >= len(xs) {
		return xs[len(xs)-1]
	}
	return xs[lo] + (pos-float64(lo))*(xs[lo+1]-xs[lo])
}

func median(xs []float64) float64 { return quantile(append([]float64(nil), xs...), 0.5) }

func mean(xs []float64) float64 {
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return ratio(sum, float64(len(xs)))
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func msOf(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = ms(d)
	}
	return out
}

// ratio is a/b, or 0 when b is 0 (a layer that did no work).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// cpuTime is the user plus system time in ru.
func cpuTime(ru *syscall.Rusage) time.Duration {
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// selfUsage is the benchmark process's own resource usage so far.
func selfUsage() syscall.Rusage {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	return ru
}
