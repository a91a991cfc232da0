package main

import (
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
	"time"
)

// toyScale runs every workload on about 8 files.
var toyScale = scale{
	archiveParts:    2,
	archivePackages: 2,
	fig9Systems:     4,
	chainFiles:      4,
	macroFiles:      8,
	setups:          2,
}

// spec is the part of BENCHMARK.json the harness must agree with.
type spec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

func readSpec(t *testing.T) spec {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var s spec
	if err := json.Unmarshal(raw, &s); err != nil {
		t.Fatal(err)
	}
	return s
}

func TestSpecMatchesHarness(t *testing.T) {
	s := readSpec(t)
	if len(s.Workloads) != len(workloadNames) {
		t.Fatalf("BENCHMARK.json has %d workloads, the harness %d", len(s.Workloads), len(workloadNames))
	}
	for i, w := range s.Workloads {
		if w.Name != workloadNames[i] {
			t.Errorf("workload %d: BENCHMARK.json says %q, the harness %q", i, w.Name, workloadNames[i])
		}
	}
	for _, tc := range []struct {
		kind string
		spec []specMetric
		defs []metricDef
	}{{"end_to_end", s.EndToEnd, endToEnd}, {"per_layer", s.PerLayer, perLayer}} {
		if len(tc.spec) != len(tc.defs) {
			t.Errorf("%s: BENCHMARK.json has %d metrics, the harness %d", tc.kind, len(tc.spec), len(tc.defs))
			continue
		}
		for i, m := range tc.spec {
			if m.Name != tc.defs[i].name || m.Unit != tc.defs[i].unit {
				t.Errorf("%s %d: BENCHMARK.json says %s [%s], the harness %s [%s]", tc.kind, i, m.Name, m.Unit, tc.defs[i].name, tc.defs[i].unit)
			}
		}
	}
}

// TestWorkloadsSmoke runs every workload at toy size, untraced and
// traced, and requires a correct result carrying every metric that
// BENCHMARK.json names, with its unit.
func TestWorkloadsSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	s := readSpec(t)
	dir := t.TempDir()
	for _, name := range workloadNames {
		for _, trace := range []bool{false, true} {
			cfg := config{workload: name, seed: 1, trace: trace, out: dir, scale: toyScale}
			want := s.EndToEnd
			if trace {
				want = s.PerLayer
			}
			ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
			res, err := run(ctx, cfg)
			cancel()
			if err != nil {
				t.Errorf("%s trace=%t: %v", name, trace, err)
				continue
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("%s trace=%t: correct=%t attempted=%d failed=%d", name, trace, res.Correct, res.Attempted, res.Failed)
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%t: %d metrics, want %d", name, trace, len(res.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := res.Metrics[m.Name]
				if !ok || got.Unit != m.Unit {
					t.Errorf("%s trace=%t: metric %s = %+v, want unit %s", name, trace, m.Name, got, m.Unit)
				}
			}
			if trace {
				if _, err := os.Stat(filepath.Join(dir, "trace-"+name+".jsonl")); err != nil {
					t.Errorf("%s: no span file: %v", name, err)
				}
			}
		}
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "file", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "a", Start: 10, End: 30},
		{ID: 3, Parent: 1, Name: "b", Start: 20, End: 50},  // overlaps a
		{ID: 4, Parent: 1, Name: "a", Start: 90, End: 120}, // runs past its parent
		{ID: 5, Parent: 3, Name: "c", Start: 25, End: 35},
		{ID: 6, Name: "file", Start: 200, End: 210}, // no children
	}
	got := selfTimes(spans)
	// file: 100 - |[10,50] ∪ [90,100]| = 50, plus the childless 10.
	// a: 20 + 30; b: 30 - 10 for c; c: 10.
	want := map[string]time.Duration{"file": 60, "a": 50, "b": 20, "c": 10}
	for name, d := range want {
		if got[name] != d {
			t.Errorf("self time of %s = %d, want %d", name, got[name], d)
		}
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{4, 1, 3, 2, 5}
	for _, tc := range []struct{ q, want float64 }{{0, 1}, {0.5, 3}, {0.99, 4.96}, {1, 5}} {
		if got := quantile(append([]float64(nil), xs...), tc.q); got < tc.want-1e-9 || got > tc.want+1e-9 {
			t.Errorf("quantile(%v) = %v, want %v", tc.q, got, tc.want)
		}
	}
}
