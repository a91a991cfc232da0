package stack

import (
	"context"
	"encoding/json"
	"reflect"
	"strings"
	"testing"
)

// ssaRichSrc has an address-taken local and duplicate subexpressions,
// so the SSA pass stack has real work to do on top of the unstable
// pointer-overflow check.
const ssaRichSrc = `
int walk(char *buf, char *buf_end, unsigned int len) {
	int n = 0;
	int *p = &n;
	*p = (int)len * 2;
	*p = (int)len * 2 + 1;
	if (buf + len >= buf_end)
		return -1;
	if (buf + len < buf)
		return -1; /* deleted by gcc: pointer overflow is undefined */
	return *p;
}
`

// TestWithSSAIdenticalDiagnostics: SSA is the default; turning it off
// (the legacy reference pipeline) must not change any diagnostic —
// same files, same codes, same rendered text.
func TestWithSSAIdenticalDiagnostics(t *testing.T) {
	srcs := []Source{
		{Name: "fig1.c", Text: fig1Src},
		{Name: "div.c", Text: divSrc},
		{Name: "ssa.c", Text: ssaRichSrc},
	}
	for _, src := range srcs {
		legacy, err := New(WithSSA(false)).CheckSource(context.Background(), src.Name, src.Text)
		if err != nil {
			t.Fatalf("%s legacy: %v", src.Name, err)
		}
		ssa, err := New().CheckSource(context.Background(), src.Name, src.Text)
		if err != nil {
			t.Fatalf("%s: %v", src.Name, err)
		}
		if !reflect.DeepEqual(legacy.Diagnostics, ssa.Diagnostics) {
			t.Errorf("%s: diagnostics differ between WithSSA(false) and the default:\n legacy: %+v\n ssa:    %+v",
				src.Name, legacy.Diagnostics, ssa.Diagnostics)
		}
		if len(legacy.Diagnostics) == 0 {
			t.Errorf("%s: no diagnostics; comparison is vacuous", src.Name)
		}
	}
}

// TestWithSSAStatsTrailer: pass counters appear in the JSON stats by
// default and vanish under WithSSA(false) — with omitempty zeros, the
// legacy trailer bytes are untouched (the golden-JSON tests depend on
// that).
func TestWithSSAStatsTrailer(t *testing.T) {
	ssa, err := New().CheckSource(context.Background(), "ssa.c", ssaRichSrc)
	if err != nil {
		t.Fatal(err)
	}
	if ssa.Stats.PromotedAllocas == 0 {
		t.Error("PromotedAllocas = 0 on a source with an address-taken local")
	}
	if ssa.Stats.EliminatedStores == 0 {
		t.Error("EliminatedStores = 0 on a source with an overwritten store")
	}
	if ssa.Stats.SSASharpened == 0 {
		t.Error("SSASharpened = 0 though promotion fired")
	}

	legacy, err := New(WithSSA(false)).CheckSource(context.Background(), "ssa.c", ssaRichSrc)
	if err != nil {
		t.Fatal(err)
	}
	raw, err := json.Marshal(legacy.Stats)
	if err != nil {
		t.Fatal(err)
	}
	// Every omitempty counter except witnessHits is zero on a cacheless
	// legacy run, so none of their keys may appear. witnessHits is
	// incremental-solver effort, which any run may spend.
	tp := reflect.TypeOf(Stats{})
	optional := 0
	for i := 0; i < tp.NumField(); i++ {
		key, opts, _ := strings.Cut(tp.Field(i).Tag.Get("json"), ",")
		if opts != "omitempty" || key == "witnessHits" {
			continue
		}
		optional++
		if strings.Contains(string(raw), `"`+key+`"`) {
			t.Errorf("WithSSA(false) stats trailer leaks %q: %s", key, raw)
		}
	}
	if optional == 0 {
		t.Fatal("no omitempty keys in Stats; the check is vacuous")
	}
}
