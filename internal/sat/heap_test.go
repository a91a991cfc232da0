package sat

import (
	"math/rand"
	"testing"
)

// refHeap is the swap-based VSIDS heap varHeap replaced, kept as the
// oracle for its layout: the decision order depends on how the heap
// breaks activity ties, so varHeap must reproduce every position, not
// just the order of removals.
type refHeap struct {
	act   *[]float64
	heap  []Var
	index []int // var -> position in heap, -1 if absent
}

func (h *refHeap) less(i, j int) bool {
	return (*h.act)[h.heap[i]] > (*h.act)[h.heap[j]]
}

func (h *refHeap) swap(i, j int) {
	h.heap[i], h.heap[j] = h.heap[j], h.heap[i]
	h.index[h.heap[i]] = i
	h.index[h.heap[j]] = j
}

func (h *refHeap) up(i int) {
	for i > 0 {
		p := (i - 1) / 2
		if !h.less(i, p) {
			break
		}
		h.swap(i, p)
		i = p
	}
}

func (h *refHeap) down(i int) {
	n := len(h.heap)
	for {
		l, r := 2*i+1, 2*i+2
		best := i
		if l < n && h.less(l, best) {
			best = l
		}
		if r < n && h.less(r, best) {
			best = r
		}
		if best == i {
			return
		}
		h.swap(i, best)
		i = best
	}
}

func (h *refHeap) insert(v Var) {
	for int(v) >= len(h.index) {
		h.index = append(h.index, -1)
	}
	if h.index[v] >= 0 {
		return
	}
	h.heap = append(h.heap, v)
	h.index[v] = len(h.heap) - 1
	h.up(len(h.heap) - 1)
}

func (h *refHeap) update(v Var) {
	if int(v) < len(h.index) && h.index[v] >= 0 {
		h.up(h.index[v])
	}
}

func (h *refHeap) removeMax() (Var, bool) {
	if len(h.heap) == 0 {
		return 0, false
	}
	v := h.heap[0]
	last := len(h.heap) - 1
	h.swap(0, last)
	h.heap = h.heap[:last]
	h.index[v] = -1
	if last > 0 {
		h.down(0)
	}
	return v, true
}

// replayHeapOps decodes data into a sequence of heap operations over at
// most 16 variables and applies each to a varHeap and to refHeap, which
// share one activity slice. After every operation the two must hold the
// same variables at the same positions. Activity bumps come from
// {0, 1, 2} and rescaling halves every activity exactly, so ties are
// common and stay ties.
func replayHeapOps(t *testing.T, data []byte) {
	t.Helper()
	r := &fuzzReader{data: data}
	nVars := 1 + int(r.next())%16
	var act []float64
	h := newVarHeap(&act)
	ref := &refHeap{act: &act}
	check := func(step int, op string) {
		t.Helper()
		same := len(h.heap) == len(ref.heap) && len(h.index) == len(ref.index)
		for i := 0; same && i < len(h.heap); i++ {
			same = Var(h.heap[i]) == ref.heap[i]
		}
		for i := 0; same && i < len(h.index); i++ {
			same = int(h.index[i]) == ref.index[i]
		}
		if !same {
			t.Fatalf("step %d (%s): heap %v index %v, reference heap %v index %v",
				step, op, h.heap, h.index, ref.heap, ref.index)
		}
	}
	for step := 0; !r.done(); step++ {
		b := r.next()
		v := Var(int(b>>2) % nVars)
		for int(v) >= len(act) {
			act = append(act, 0)
		}
		switch b & 3 {
		case 0:
			h.insert(v)
			ref.insert(v)
			check(step, "insert")
		case 1:
			act[v] += float64(r.next() % 3)
			h.update(v)
			ref.update(v)
			check(step, "bump")
		case 2:
			got, gotOK := h.removeMax()
			want, wantOK := ref.removeMax()
			if got != want || gotOK != wantOK {
				t.Fatalf("step %d: removeMax = %d, %v; reference %d, %v", step, got, gotOK, want, wantOK)
			}
			check(step, "removeMax")
		case 3:
			for i := range act {
				act[i] *= 0.5
			}
			check(step, "rescale")
		}
	}
}

// TestVarHeapMatchesReference replays seeded random operation
// sequences on varHeap and the swap-based reference heap.
func TestVarHeapMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for seq := 0; seq < 300; seq++ {
		data := make([]byte, 1+rng.Intn(400))
		rng.Read(data)
		replayHeapOps(t, data)
	}
}

// FuzzVarHeap replays byte-decoded operation sequences on varHeap and
// the swap-based reference heap.
func FuzzVarHeap(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{3, 0, 4, 8, 12, 1, 1, 5, 2, 2, 2, 2, 2})
	f.Add([]byte{15, 0, 4, 8, 12, 16, 20, 24, 28, 1, 0, 5, 0, 9, 1, 3, 2, 0, 2, 4, 2, 2})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 1024 {
			t.Skip("oversized input")
		}
		replayHeapOps(t, data)
	})
}
