package repro

import (
	"encoding/json"
	"errors"
	"fmt"
	"maps"
	"runtime"
	"slices"
	"strings"
	"testing"

	"repro/internal/core"
)

// allocsCeiling is how far above its pinned value a benchmark's
// allocs/op may rise. Allocation counts of these workloads are
// deterministic up to pooling and GC timing, which moved them by at
// most 0.6% over three runs each at GOMAXPROCS 1, 2 and 4.
const allocsCeiling = 1.02

// workPin is the work one benchmark is pinned to do.
type workPin struct {
	// allocs is the allocs/op of the benchmark's timed loop. Zero
	// leaves allocations unchecked: only the benchmarks that `make
	// bench-smoke` runs on every change pin them, so that nothing
	// drifts away from its pin unnoticed.
	allocs float64
	// rows maps a row name to its exact counts, one JSON object per
	// line; a core.Stats row is its JSON encoding without the "sched"
	// counters.
	rows map[string]string
}

// pinnedWork is the exact work of the gated benchmarks under
// core.DefaultOptions, keyed by benchmark name. These counts do not
// depend on timing, worker count or GOMAXPROCS, so any difference is a
// change in what the checker does. A change that alters the work on
// purpose edits the rows here, as a declared search change re-pins
// TestSearchPinned; a failure prints the rows the benchmark produced.
// The paper-figure rows hold the reproduced counts of EXPERIMENTS.md.
// The allocs values were measured with go1.24.0 on linux/amd64 at
// GOMAXPROCS=2.
var pinnedWork = map[string]workPin{
	"BenchmarkFig16Kerberos": {allocs: 169483, rows: map[string]string{
		"figure": `{"files":70,"queries":5472,"query-timeouts":0}`,
		"stats":  `{"functions":420,"blocks":1987,"queries":5472,"timeouts":0,"rewriteHits":5689,"termsCreated":9474,"fastPaths":3,"termsBlasted":3509,"blastPasses":682,"learntsReused":13871,"cacheHits":7511,"learntsDropped":0,"arenaBytesReused":0,"sccpFoldedValues":771,"witnessHits":4418}`,
	}},
	"BenchmarkSweepParallel": {allocs: 151272, rows: map[string]string{
		"stats": `{"functions":384,"blocks":1688,"queries":4662,"timeouts":0,"rewriteHits":5148,"termsCreated":8532,"fastPaths":0,"termsBlasted":3381,"blastPasses":622,"learntsReused":25757,"cacheHits":6889,"learntsDropped":0,"arenaBytesReused":0,"sccpFoldedValues":597,"witnessHits":3711}`,
	}},
	"BenchmarkIncrementalVsScratch": {allocs: 418172, rows: map[string]string{
		"incremental": `{"functions":256,"blocks":1303,"queries":3273,"timeouts":0,"rewriteHits":3184,"termsCreated":5621,"fastPaths":27,"termsBlasted":2838,"blastPasses":519,"learntsReused":158317,"cacheHits":3855,"learntsDropped":0,"arenaBytesReused":0,"sccpFoldedValues":448,"witnessHits":2417}`,
		"scratch":     `{"functions":256,"blocks":1303,"queries":3273,"timeouts":0,"rewriteHits":3184,"termsCreated":5621,"fastPaths":27,"termsBlasted":36757,"blastPasses":3246,"learntsReused":0,"cacheHits":3855,"learntsDropped":0,"arenaBytesReused":0,"sccpFoldedValues":448}`,
	}},
	"BenchmarkSSAChainHeavy": {allocs: 117364, rows: map[string]string{
		"legacy": `{"functions":24,"blocks":312,"queries":864,"timeouts":0,"rewriteHits":864,"termsCreated":5825,"fastPaths":0,"termsBlasted":5345,"blastPasses":96,"learntsReused":1313931,"cacheHits":2551,"learntsDropped":0,"arenaBytesReused":0,"witnessHits":686}`,
		"ssa":    `{"functions":24,"blocks":312,"queries":864,"timeouts":0,"rewriteHits":720,"termsCreated":4437,"fastPaths":0,"termsBlasted":4053,"blastPasses":96,"learntsReused":652736,"cacheHits":3075,"learntsDropped":0,"arenaBytesReused":0,"promotedAllocas":24,"eliminatedStores":24,"sccpFoldedValues":48,"ssaSharpened":24,"witnessHits":704}`,
	}},
	"BenchmarkSCCPBranchHeavy": {allocs: 44726, rows: map[string]string{
		"legacy": `{"functions":24,"blocks":168,"queries":408,"timeouts":0,"rewriteHits":960,"termsCreated":2923,"fastPaths":0,"termsBlasted":2715,"blastPasses":56,"learntsReused":1073344,"cacheHits":917,"learntsDropped":0,"arenaBytesReused":0,"witnessHits":323}`,
		"ssa":    `{"functions":24,"blocks":168,"queries":240,"timeouts":0,"rewriteHits":1080,"termsCreated":2515,"fastPaths":0,"termsBlasted":1306,"blastPasses":39,"learntsReused":26414,"cacheHits":1229,"learntsDropped":0,"arenaBytesReused":0,"sccpFoldedValues":96,"sccpFoldedBranches":24,"sccpUnreachableBlocks":24,"hoistedUbTerms":48,"ssaSharpened":24,"witnessHits":180}`,
	}},
	"BenchmarkWarmSweep": {allocs: 5353, rows: map[string]string{
		"counts": `{"cacheResultHits":360,"cacheResultMisses":0,"files":360,"queries":0,"reports":245}`,
	}},
	"BenchmarkFig9BugCorpus": {rows: map[string]string{
		"figure": `{"bugs-found":160,"reports":178}`,
	}},
	"BenchmarkFig16Postgres": {rows: map[string]string{
		"figure": `{"files":77,"queries":5771,"query-timeouts":0}`,
	}},
	"BenchmarkFig16Linux": {rows: map[string]string{
		"figure": `{"files":280,"queries":28480,"query-timeouts":0}`,
	}},
	"BenchmarkFig17ReportsByAlgorithm": {rows: map[string]string{
		"figure": `{"algebra-oracle":3,"boolean-oracle":155,"elimination":87}`,
	}},
	"BenchmarkFig18ReportsByUBKind": {rows: map[string]string{
		"figure": `{"buffer":21,"null-deref":195,"pointer":11,"signed-int":13}`,
	}},
	"BenchmarkSec65MinimalUBSets": {rows: map[string]string{
		"figure": `{"multi-cond-reports":0,"single-cond-reports":245}`,
	}},
	"BenchmarkSec66Completeness": {rows: map[string]string{
		"figure": `{"found-of-10":7}`,
	}},
}

// measure runs body b.N times as the benchmark's timed loop and
// returns the heap allocations per iteration.
func measure(b *testing.B, body func()) float64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		body()
	}
	b.StopTimer()
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / float64(b.N)
}

// checkPinned fails b unless its counts and allocs/op pass
// checkWork against its pinnedWork entry.
func checkPinned(b *testing.B, allocs float64, rows map[string]any) {
	b.Helper()
	if err := checkWork(b.Name(), allocs, rows); err != nil {
		b.Fatal(err)
	}
}

// checkWork compares a benchmark's measured allocs/op and count rows
// with its pinnedWork entry. Each row is compared field by field, a
// field absent from one side counting as zero; every difference is
// reported with the benchmark, row and field it concerns.
func checkWork(name string, allocs float64, rows map[string]any) error {
	pin := pinnedWork[name]
	var errs []error
	if pin.allocs > 0 && allocs > pin.allocs*allocsCeiling {
		errs = append(errs, fmt.Errorf("%s: allocs/op %.0f is %.3fx the pinned %.0f (ceiling %.2fx)",
			name, allocs, allocs/pin.allocs, pin.allocs, allocsCeiling))
	}
	for _, row := range slices.Sorted(maps.Keys(pin.rows)) {
		if _, ok := rows[row]; !ok {
			errs = append(errs, fmt.Errorf("%s row %s: pinned but not produced", name, row))
		}
	}
	for _, row := range slices.Sorted(maps.Keys(rows)) {
		v := rows[row]
		if st, ok := v.(core.Stats); ok {
			v = st.Without("sched")
		}
		line, err := json.Marshal(v)
		if err != nil {
			return err
		}
		want, ok := pin.rows[row]
		if !ok {
			errs = append(errs, fmt.Errorf("%s row %s: not pinned; got %s", name, row, line))
			continue
		}
		var got, pinned map[string]int64
		if err := json.Unmarshal(line, &got); err != nil {
			return fmt.Errorf("%s row %s: %v", name, row, err)
		}
		if err := json.Unmarshal([]byte(want), &pinned); err != nil {
			return fmt.Errorf("%s row %s: pinned row: %v", name, row, err)
		}
		fields := maps.Clone(got)
		maps.Copy(fields, pinned)
		differs := false
		for _, field := range slices.Sorted(maps.Keys(fields)) {
			if got[field] != pinned[field] {
				errs = append(errs, fmt.Errorf("%s row %s: %s = %d, pinned %d", name, row, field, got[field], pinned[field]))
				differs = true
			}
		}
		if differs {
			errs = append(errs, fmt.Errorf("%s row %s: got %s", name, row, line))
		}
	}
	return errors.Join(errs...)
}

// TestCheckWork proves the gate can fail: every pinned row passes
// against itself, a count off by one fails naming its benchmark, row
// and field, and allocs/op fail just above the ceiling but not below
// the pin. A "sched" counter never fails a row.
func TestCheckWork(t *testing.T) {
	for name, pin := range pinnedWork {
		rows := map[string]any{}
		for row, line := range pin.rows {
			var counts map[string]int64
			if err := json.Unmarshal([]byte(line), &counts); err != nil {
				t.Fatalf("%s row %s: %v", name, row, err)
			}
			rows[row] = counts
		}
		if err := checkWork(name, pin.allocs, rows); err != nil {
			t.Errorf("pinned rows fail against themselves: %v", err)
		}
	}

	const name = "BenchmarkSweepParallel"
	pin := pinnedWork[name]
	var st core.Stats
	if err := json.Unmarshal([]byte(pin.rows["stats"]), &st); err != nil {
		t.Fatal(err)
	}
	st.ArenaBytesReused = 12345
	if err := checkWork(name, 0.9*pin.allocs, map[string]any{"stats": st}); err != nil {
		t.Errorf("0.9x allocs and a sched counter failed: %v", err)
	}

	off := st
	off.Queries++
	err := checkWork(name, pin.allocs, map[string]any{"stats": off})
	want := fmt.Sprintf("%s row stats: queries = %d, pinned %d", name, off.Queries, st.Queries)
	if err == nil || !strings.Contains(err.Error(), want) {
		t.Errorf("a query more: got %v, want an error containing %q", err, want)
	}

	err = checkWork(name, 1.03*pin.allocs, map[string]any{"stats": st})
	if err == nil || !strings.Contains(err.Error(), name+": allocs/op") {
		t.Errorf("1.03x allocs: got %v, want an allocs/op error", err)
	}
}
