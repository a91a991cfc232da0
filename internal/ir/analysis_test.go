package ir

import "testing"

func TestDSERemovesOverwrittenStores(t *testing.T) {
	src := `
int f(int a) {
	int x = 1;
	int *p = &x;
	*p = 2;
	*p = a;
	return *p;
}
`
	execDiff(t, src, "f", [][]uint64{{0}, {9}}, func(f *Func) {
		if removed := DSE(f); removed == 0 {
			t.Error("DSE removed nothing; the first two stores are dead")
		}
	})
}

func TestDSEKeepsStoreBeforeLoad(t *testing.T) {
	src := `
int f(int a) {
	int x = 1;
	int *p = &x;
	int y = *p;
	*p = a;
	return y + *p;
}
`
	execDiff(t, src, "f", [][]uint64{{0}, {4}}, func(f *Func) {
		if removed := DSE(f); removed != 0 {
			t.Errorf("DSE removed %d stores; the load observes the first", removed)
		}
	})
}

func TestDSEKeepsStoreBeforeCall(t *testing.T) {
	src := `
int g(int *p) { return *p; }
int f() {
	int x = 1;
	g(&x);
	x = 2;
	return x;
}
`
	f := fn(t, build(t, src), "f")
	if removed := DSE(f); removed != 0 {
		t.Errorf("DSE removed %d stores; the call may observe the escaped slot", removed)
	}
}

// TestRunSSAPassesExecDifferential drives the full pass stack over a
// function exercising promotion and store elimination at once.
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
