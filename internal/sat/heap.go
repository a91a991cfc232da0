package sat

// varHeap is a max-heap of variables ordered by activity, with an
// index map for decrease/increase-key. It implements the VSIDS
// decision order.
//
// Sifting moves a hole rather than swapping, and reads the activity
// slice once per operation. Its comparisons are strict and made in a
// fixed order, so among equal activities the layout, and with it the
// decision order, is a function of the operation sequence alone: the
// tie rule is part of the search.
type varHeap struct {
	act   *[]float64
	heap  []int32 // variables, heap-ordered
	index []int32 // var -> position in heap, -1 if absent
}

func newVarHeap(act *[]float64) *varHeap {
	return &varHeap{act: act}
}

// reset empties the heap, keeping its arrays.
func (h *varHeap) reset() {
	h.heap, h.index = h.heap[:0], h.index[:0]
}

// up moves the variable at position i toward the root while its
// activity is strictly greater than its parent's.
func (h *varHeap) up(i int) {
	act, heap := *h.act, h.heap
	v := heap[i]
	a := act[v]
	for i > 0 {
		p := (i - 1) >> 1
		pv := heap[p]
		if !(a > act[pv]) {
			break
		}
		heap[i] = pv
		h.index[pv] = int32(i)
		i = p
	}
	heap[i] = v
	h.index[v] = int32(i)
}

// down moves the variable at position i toward the leaves. Each step
// takes the more active child, the left one on a tie, while that child
// is strictly more active than the variable.
func (h *varHeap) down(i int) {
	act, heap := *h.act, h.heap
	n := len(heap)
	v := heap[i]
	a := act[v]
	for {
		c := 2*i + 1
		if c >= n {
			break
		}
		cv := heap[c]
		ca := act[cv]
		if r := c + 1; r < n {
			if ra := act[heap[r]]; ra > ca {
				c, cv, ca = r, heap[r], ra
			}
		}
		if !(ca > a) {
			break
		}
		heap[i] = cv
		h.index[cv] = int32(i)
		i = c
	}
	heap[i] = v
	h.index[v] = int32(i)
}

// insert adds v to the heap if absent.
func (h *varHeap) insert(v Var) {
	for int(v) >= len(h.index) {
		h.index = append(h.index, -1)
	}
	if h.index[v] >= 0 {
		return
	}
	h.heap = append(h.heap, int32(v))
	h.up(len(h.heap) - 1)
}

// update restores heap order after v's activity increased.
func (h *varHeap) update(v Var) {
	if int(v) < len(h.index) && h.index[v] >= 0 {
		h.up(int(h.index[v]))
	}
}

// removeMax pops the highest-activity variable.
func (h *varHeap) removeMax() (Var, bool) {
	if len(h.heap) == 0 {
		return 0, false
	}
	v := h.heap[0]
	last := len(h.heap) - 1
	h.heap[0] = h.heap[last]
	h.heap = h.heap[:last]
	h.index[v] = -1
	if last > 0 {
		h.down(0)
	}
	return Var(v), true
}
