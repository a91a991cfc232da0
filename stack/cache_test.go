package stack

import (
	"bytes"
	"context"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/stack/cache"
)

// TestWarmCacheSweepByteIdentity is the tentpole gate: a sweep served
// entirely from a warm result cache produces byte-identical output to
// the cold run that populated it — across worker counts 1/4/16 — while
// doing zero solver work.
func TestWarmCacheSweepByteIdentity(t *testing.T) {
	pkgs := publicPackages(sweepArchive())
	c := cache.NewMemory(8 << 20)
	// No wall-clock budget, so verdicts (and therefore bytes) are
	// strictly deterministic.
	opts := func(extra ...Option) []Option {
		return append([]Option{WithSolverTimeout(0), WithCache(c)}, extra...)
	}

	var coldBuf bytes.Buffer
	cold := New(opts(WithWorkers(1))...)
	coldRes, err := cold.Sweep(context.Background(), pkgs, NewTextSink(&coldBuf))
	if err != nil {
		t.Fatal(err)
	}
	if coldBuf.Len() == 0 || coldRes.Reports == 0 {
		t.Fatal("cold sweep produced no reports; identity test is vacuous")
	}
	files := int64(coldRes.Files)
	if coldRes.CacheResultHits != 0 || coldRes.CacheResultMisses != files {
		t.Fatalf("cold counters: hits=%d misses=%d, want 0/%d",
			coldRes.CacheResultHits, coldRes.CacheResultMisses, files)
	}

	for _, workers := range []int{1, 4, 16} {
		name := fmt.Sprintf("workers=%d", workers)
		az := New(opts(WithWorkers(workers))...)
		var warmBuf bytes.Buffer
		res, err := az.Sweep(context.Background(), pkgs, NewTextSink(&warmBuf))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if warmBuf.String() != coldBuf.String() {
			t.Errorf("%s: warm sink stream diverged from cold\n--- warm ---\n%s--- cold ---\n%s",
				name, warmBuf.String(), coldBuf.String())
		}
		// The summary's effort counters (queries, blasted terms) are
		// genuinely zero on a warm run and its timing lines vary, but
		// the report sections must match the cold run byte for byte.
		if got, want := reportSections(t, res.Format()), reportSections(t, coldRes.Format()); got != want {
			t.Errorf("%s: warm report summary diverged from cold\n--- warm ---\n%s--- cold ---\n%s", name, got, want)
		}
		if res.CacheResultHits != files || res.CacheResultMisses != 0 {
			t.Errorf("%s: warm counters hits=%d misses=%d, want %d/0",
				name, res.CacheResultHits, res.CacheResultMisses, files)
		}
		// A fully warm sweep does no solver work at all.
		if res.Queries != 0 {
			t.Errorf("%s: warm sweep issued %d solver queries, want 0", name, res.Queries)
		}
		if res.Reports != coldRes.Reports || res.Functions != coldRes.Functions || res.Files != coldRes.Files ||
			res.PackagesWithReports != coldRes.PackagesWithReports {
			t.Errorf("%s: warm summary fields diverged: %+v vs %+v", name, res, coldRes)
		}
	}
}

// reportSections returns the deterministic report tail of a sweep
// summary — everything from "reports by algorithm" on — dropping the
// timing and solver-effort lines that legitimately differ between a
// cold and a warm run.
func reportSections(t *testing.T, summary string) string {
	t.Helper()
	i := strings.Index(summary, "reports by algorithm")
	if i < 0 {
		t.Fatalf("summary has no report sections:\n%s", summary)
	}
	return summary[i:]
}

// TestWarmCacheCheckSourcesIdentity: the batch path consults the same
// cache — warm Stats.CacheResultHits equals the source count, the
// emitted results are identical, and a cold run counts only misses.
func TestWarmCacheCheckSourcesIdentity(t *testing.T) {
	c := cache.NewMemory(1 << 20)
	srcs := []Source{
		{Name: "a.c", Text: fig1Src},
		{Name: "b.c", Text: divSrc},
		{Name: "c.c", Text: fig1Src + "\n"}, // distinct bytes from a.c
	}
	run := func(workers int) ([]FileResult, Stats) {
		az := New(WithSolverTimeout(0), WithCache(c), WithWorkers(workers))
		var got []FileResult
		st, err := az.CheckSources(context.Background(), srcs, func(fr FileResult) { got = append(got, fr) })
		if err != nil {
			t.Fatal(err)
		}
		return got, st
	}
	coldRes, coldSt := run(1)
	if coldSt.CacheResultHits != 0 || coldSt.CacheResultMisses != int64(len(srcs)) {
		t.Fatalf("cold stats: hits=%d misses=%d, want 0/%d", coldSt.CacheResultHits, coldSt.CacheResultMisses, len(srcs))
	}
	for _, workers := range []int{1, 4} {
		warmRes, warmSt := run(workers)
		if warmSt.CacheResultHits != int64(len(srcs)) || warmSt.CacheResultMisses != 0 {
			t.Errorf("workers=%d: warm stats hits=%d misses=%d, want %d/0",
				workers, warmSt.CacheResultHits, warmSt.CacheResultMisses, len(srcs))
		}
		if warmSt.Queries != 0 {
			t.Errorf("workers=%d: warm batch issued %d queries, want 0", workers, warmSt.Queries)
		}
		if warmSt.Functions != coldSt.Functions || warmSt.Blocks != coldSt.Blocks {
			t.Errorf("workers=%d: shape counters not replayed: warm %+v cold %+v", workers, warmSt, coldSt)
		}
		if !reflect.DeepEqual(warmRes, coldRes) {
			t.Errorf("workers=%d: warm results diverged:\nwarm %+v\ncold %+v", workers, warmRes, coldRes)
		}
	}
	// CheckSource rides the same cache.
	az := New(WithSolverTimeout(0), WithCache(c))
	res, err := az.CheckSource(context.Background(), "a.c", fig1Src)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.CacheResultHits != 1 || res.Stats.Queries != 0 {
		t.Errorf("CheckSource warm stats = %+v, want one hit and no queries", res.Stats)
	}
}

// TestWarmCacheRehydratesFileNames: the key is purely content-
// addressed — a second file with identical bytes but a different name
// hits, and every position in the replayed diagnostics names the
// requesting file, byte-identical to analyzing it fresh.
func TestWarmCacheRehydratesFileNames(t *testing.T) {
	c := cache.NewMemory(1 << 20)
	az := New(WithSolverTimeout(0), WithCache(c))
	ctx := context.Background()
	if _, err := az.CheckSource(ctx, "original.c", fig1Src); err != nil {
		t.Fatal(err)
	}

	cached, err := az.CheckSource(ctx, "renamed.c", fig1Src)
	if err != nil {
		t.Fatal(err)
	}
	if cached.Stats.CacheResultHits != 1 {
		t.Fatalf("same-bytes different-name lookup missed: %+v", cached.Stats)
	}
	fresh, err := New(WithSolverTimeout(0)).CheckSource(ctx, "renamed.c", fig1Src)
	if err != nil {
		t.Fatal(err)
	}
	if len(cached.Diagnostics) == 0 {
		t.Fatal("no diagnostics; rehydration test is vacuous")
	}
	if got, want := FormatDiagnostics(cached.Diagnostics), FormatDiagnostics(fresh.Diagnostics); got != want {
		t.Errorf("replayed diagnostics differ from fresh analysis under the new name\n--- cached ---\n%s--- fresh ---\n%s", got, want)
	}
	for _, d := range cached.Diagnostics {
		if strings.Contains(d.String(), "original.c") {
			t.Errorf("diagnostic leaked the stored name: %s", d)
		}
	}
}

// TestCacheKeyOptionSensitivity: every result-affecting option changes
// the cache key; the source bytes do too; equal configurations agree.
func TestCacheKeyOptionSensitivity(t *testing.T) {
	base := core.DefaultOptions
	src := "int f(void) { return 0; }"
	baseKey := newResultCache(nil, base).key(src)

	if newResultCache(nil, base).key(src) != baseKey {
		t.Fatal("cache key is not deterministic")
	}
	if newResultCache(nil, base).key(src+" ") == baseKey {
		t.Error("source bytes do not affect the key")
	}

	mutations := map[string]func(*core.Options){
		"Timeout":                         func(o *core.Options) { o.Timeout++ },
		"MaxConflictsPerQuery":            func(o *core.Options) { o.MaxConflictsPerQuery++ },
		"FilterOrigins":                   func(o *core.Options) { o.FilterOrigins = !o.FilterOrigins },
		"MinUBSets":                       func(o *core.Options) { o.MinUBSets = !o.MinUBSets },
		"Inline":                          func(o *core.Options) { o.Inline = !o.Inline },
		"ScratchSolve":                    func(o *core.Options) { o.ScratchSolve = !o.ScratchSolve },
		"SSA":                             func(o *core.Options) { o.SSA = !o.SSA },
		"Flags.WrapV":                     func(o *core.Options) { o.Flags.WrapV = !o.Flags.WrapV },
		"Flags.NoStrictOverflow":          func(o *core.Options) { o.Flags.NoStrictOverflow = !o.Flags.NoStrictOverflow },
		"Flags.NoDeleteNullPointerChecks": func(o *core.Options) { o.Flags.NoDeleteNullPointerChecks = !o.Flags.NoDeleteNullPointerChecks },
	}
	for name, mutate := range mutations {
		o := base
		mutate(&o)
		if newResultCache(nil, o).key(src) == baseKey {
			t.Errorf("mutating %s does not change the cache key", name)
		}
	}
}

// TestCacheKeyIgnoresExecutionKnobs: Workers cannot change results, so
// analyzers differing only in it share entries — asserted behaviorally
// through a shared cache.
func TestCacheKeyIgnoresExecutionKnobs(t *testing.T) {
	c := cache.NewMemory(1 << 20)
	ctx := context.Background()
	if _, err := New(WithSolverTimeout(0), WithCache(c), WithWorkers(1)).CheckSource(ctx, "a.c", fig1Src); err != nil {
		t.Fatal(err)
	}
	for _, az := range []*Analyzer{
		New(WithSolverTimeout(0), WithCache(c), WithWorkers(16)),
	} {
		res, err := az.CheckSource(ctx, "a.c", fig1Src)
		if err != nil {
			t.Fatal(err)
		}
		if res.Stats.CacheResultHits != 1 {
			t.Errorf("execution-knob variant missed the shared cache: %+v", res.Stats)
		}
	}
}

// TestOptionsFingerprintCoversAllFields reflects over core.Options and
// core.Flags: every field must appear by name in the fingerprint, and
// mutating any field must change the fingerprint bytes. Adding a
// result-affecting option without extending optionsFingerprint fails
// here (and in scripts/invariants.sh, which cross-checks from the
// shell).
func TestOptionsFingerprintCoversAllFields(t *testing.T) {
	base := core.DefaultOptions
	fp := string(optionsFingerprint(base))

	var walk func(prefix string, v reflect.Value)
	walk = func(prefix string, v reflect.Value) {
		tp := v.Type()
		for i := 0; i < tp.NumField(); i++ {
			f := tp.Field(i)
			name := prefix + f.Name
			if f.Type.Kind() == reflect.Struct && f.Type != reflect.TypeOf(core.Options{}.Timeout) {
				walk(name+".", v.Field(i))
				continue
			}
			if !strings.Contains(fp, name+"=") {
				t.Errorf("fingerprint does not name field %s", name)
			}
		}
	}
	walk("", reflect.ValueOf(base))

	// Mutate every leaf field via reflection and demand a new
	// fingerprint. This is what makes the check future-proof: a new
	// field fails without any test edit.
	var mutate func(prefix string, v reflect.Value)
	mutate = func(prefix string, v reflect.Value) {
		for i := 0; i < v.NumField(); i++ {
			name := prefix + v.Type().Field(i).Name
			f := v.Field(i)
			o := base // fresh copy per field
			target := reflect.ValueOf(&o).Elem()
			// Walk down to the same field in the copy.
			path := strings.Split(name, ".")
			for _, p := range path {
				target = target.FieldByName(p)
			}
			switch f.Kind() {
			case reflect.Bool:
				target.SetBool(!f.Bool())
			case reflect.Int, reflect.Int64:
				target.SetInt(f.Int() + 1)
			case reflect.Struct:
				mutate(name+".", f)
				continue
			default:
				t.Fatalf("field %s has kind %v; teach the fingerprint test about it", name, f.Kind())
			}
			if string(optionsFingerprint(o)) == fp {
				t.Errorf("mutating %s does not change the fingerprint", name)
			}
		}
	}
	mutate("", reflect.ValueOf(base))
}

// TestWarmCacheSurvivesRestart: entries written through a tiered
// memory+disk cache are served by a brand-new analyzer holding a fresh
// Disk handle on the same root — the persistence the stackd -cache-dir
// flag promises across restarts.
func TestWarmCacheSurvivesRestart(t *testing.T) {
	root := t.TempDir()
	disk, err := cache.NewDisk(root)
	if err != nil {
		t.Fatal(err)
	}
	tiered := cache.NewTiered(cache.NewMemory(1<<20), disk)
	ctx := context.Background()
	if _, err := New(WithSolverTimeout(0), WithCache(tiered)).CheckSource(ctx, "a.c", fig1Src); err != nil {
		t.Fatal(err)
	}

	disk2, err := cache.NewDisk(root) // "restarted" process: cold memory, same directory
	if err != nil {
		t.Fatal(err)
	}
	az := New(WithSolverTimeout(0), WithCache(cache.NewTiered(cache.NewMemory(1<<20), disk2)))
	res, err := az.CheckSource(ctx, "a.c", fig1Src)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.CacheResultHits != 1 || res.Stats.Queries != 0 {
		t.Errorf("restarted analyzer stats = %+v, want a disk hit and no queries", res.Stats)
	}
}

// TestCacheCorruptPayloadIsMiss: a payload that fails to decode is
// treated as a miss and reanalyzed, never served or fatal.
func TestCacheCorruptPayloadIsMiss(t *testing.T) {
	c := cache.NewMemory(1 << 20)
	az := New(WithSolverTimeout(0), WithCache(c))
	ctx := context.Background()
	if _, err := az.CheckSource(ctx, "a.c", fig1Src); err != nil {
		t.Fatal(err)
	}
	// Overwrite the stored entry with junk under the same key.
	c.Put(newResultCache(nil, az.coreOptions()).key(fig1Src), []byte("{not json"))
	res, err := az.CheckSource(ctx, "a.c", fig1Src)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.CacheResultHits != 0 || res.Stats.CacheResultMisses != 1 {
		t.Errorf("corrupt payload was not a miss: %+v", res.Stats)
	}
	if len(res.Diagnostics) == 0 {
		t.Error("reanalysis after corrupt payload lost diagnostics")
	}
}
