package ir

import "testing"

// TestRunSSAPassesExecDifferential drives the full pass stack over a
// function whose address-taken local promotion lifts, deleting its
// stores.
func TestRunSSAPassesExecDifferential(t *testing.T) {
	src := `
int f(int a, int b) {
	int x = 0;
	int *p = &x;
	*p = a + b;
	*p = a + b + 1;
	int s = 0;
	for (int i = 0; i < *p; i++) {
		s = s + (a + b);
	}
	if (s > 10) {
		*p = s;
	}
	return *p + s;
}
`
	var ps PassStats
	execDiff(t, src, "f",
		[][]uint64{{0, 0}, {1, 2}, {3, 4}, {10, 0}},
		func(f *Func) { ps = RunSSAPasses(f, ComputeDom(f)) })
	if ps.PromotedAllocas != 1 {
		t.Errorf("PromotedAllocas = %d, want 1", ps.PromotedAllocas)
	}
	if ps.EliminatedStores == 0 {
		t.Error("EliminatedStores = 0, want > 0 (promotion deletes the stores)")
	}
}
