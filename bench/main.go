// Command bench is the end-to-end and per-layer benchmark of the STACK
// checker. Run it from the repository root:
//
//	bash bench/run.sh --workload archive-sweep --seed 1 --seconds 35 --trace 0
//
// run.sh builds this command under .bench_build and runs it with the
// same flags. Each run measures one workload for the given number of
// seconds, checks every result against answers known from how the
// inputs were generated, and prints as its last line one JSON object:
// {"correct", "attempted", "failed", "metrics"}. With -trace 0 the
// metrics are the end-to-end ones; with -trace 1 they are the per-layer
// ones, and the spans go to <out>/trace-<workload>.jsonl. Times are
// scaled to a reference host speed (hostref.go). README.md lists the
// workloads and metrics.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"time"
)

// config is one run's settings.
type config struct {
	workload string
	seed     int64
	window   time.Duration
	trace    bool
	out      string // directory for trace files
	scale    scale
}

// workloadNames lists the workloads in BENCHMARK.json order.
var workloadNames = []string{"archive-sweep", "hard-queries", "macro-heavy"}

var workloads = map[string]func(seed int64, sc scale) []*batch{
	"archive-sweep": archiveSweep,
	"hard-queries":  hardQueries,
	"macro-heavy":   macroHeavy,
}

func parseFlags(args []string) (config, error) {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	cfg := config{scale: fullScale}
	fs.StringVar(&cfg.workload, "workload", "", fmt.Sprintf("workload to run: one of %v", workloadNames))
	fs.Int64Var(&cfg.seed, "seed", 1, "seed of every input generator (2 and 3 are held out)")
	seconds := fs.Float64("seconds", 35, "length of the measured window")
	trace := fs.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced run")
	fs.StringVar(&cfg.out, "out", "bench/out", "directory for trace files")
	if err := fs.Parse(args); err != nil {
		return cfg, err
	}
	if _, ok := workloads[cfg.workload]; !ok {
		return cfg, fmt.Errorf("unknown workload %q: want one of %v", cfg.workload, workloadNames)
	}
	if *trace != 0 && *trace != 1 {
		return cfg, fmt.Errorf("-trace must be 0 or 1, not %d", *trace)
	}
	if *seconds < 0 {
		return cfg, fmt.Errorf("-seconds must not be negative")
	}
	cfg.window = time.Duration(*seconds * float64(time.Second))
	cfg.trace = *trace == 1
	return cfg, nil
}

// run measures one workload. The result is complete only when err is
// nil; otherwise it says how much was attempted and failed.
func run(ctx context.Context, cfg config) (*result, error) {
	br := &batchRun{cfg: cfg, gen: workloads[cfg.workload]}
	var tr *tracer
	var values map[string]float64
	var err error
	defs := endToEnd
	if cfg.trace {
		tr = newTracer()
		defs = perLayer
		values, err = br.perLayer(ctx, tr)
	} else {
		values, err = br.endToEnd(ctx)
	}
	res := &br.res
	res.Metrics = map[string]metric{}
	if err != nil {
		return res, err
	}
	if cfg.trace {
		if err := tr.write(filepath.Join(cfg.out, "trace-"+cfg.workload+".jsonl")); err != nil {
			return res, fmt.Errorf("writing spans: %w", err)
		}
	}
	if res.Metrics, err = fill(defs, values); err != nil {
		res.Metrics = map[string]metric{}
		return res, err
	}
	res.Correct = res.Failed == 0
	return res, nil
}

func main() {
	cfg, err := parseFlags(os.Args[1:])
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		os.Exit(2)
	}
	// The benchmark runs with the shipped parallelism and the default GC
	// target, whatever the host.
	runtime.GOMAXPROCS(workers)
	debug.SetGCPercent(100)
	fmt.Printf("# host: nproc=%d GOMAXPROCS=%d go=%s seed=%d workload=%s trace=%t window=%v\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), cfg.seed, cfg.workload, cfg.trace, cfg.window)

	res, err := run(context.Background(), cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
	}
	for _, defs := range [][]metricDef{endToEnd, perLayer} {
		for _, d := range defs {
			if m, ok := res.Metrics[d.name]; ok {
				fmt.Printf("# %-34s %14.4f %s\n", d.name, m.Value, m.Unit)
			}
		}
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}
