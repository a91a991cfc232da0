package ir

import (
	"sort"
	"testing"
)

// link wires a CFG edge, keeping Preds and Succs consistent.
func link(from, to *Block) {
	from.Succs = append(from.Succs, to)
	to.Preds = append(to.Preds, from)
}

// cfg builds a Func with n blocks and the given edges (by index);
// block 0 is the entry.
func cfg(t *testing.T, n int, edges [][2]int) (*Func, []*Block) {
	t.Helper()
	f := &Func{Name: "t"}
	blocks := make([]*Block, n)
	for i := range blocks {
		blocks[i] = f.NewBlock()
	}
	f.Entry = blocks[0]
	for _, e := range edges {
		link(blocks[e[0]], blocks[e[1]])
	}
	return f, blocks
}

func frontierIDs(df [][]*Block, b *Block) []int {
	var ids []int
	for _, w := range df[b.ID] {
		ids = append(ids, w.ID)
	}
	sort.Ints(ids)
	return ids
}

func eqInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestDomDiamond: the classic if/else diamond.
//
//	0 → 1, 0 → 2, 1 → 3, 2 → 3
func TestDomDiamond(t *testing.T) {
	f, b := cfg(t, 4, [][2]int{{0, 1}, {0, 2}, {1, 3}, {2, 3}})
	d := ComputeDom(f)

	wantIdom := map[int]int{0: 0, 1: 0, 2: 0, 3: 0}
	for id, want := range wantIdom {
		if got := d.IDom(b[id]); got != b[want] {
			t.Errorf("idom(b%d) = %v, want b%d", id, got, want)
		}
	}
	if !d.Dominates(b[0], b[3]) {
		t.Error("entry must dominate the join")
	}
	if d.Dominates(b[1], b[3]) || d.Dominates(b[2], b[3]) {
		t.Error("neither arm dominates the join")
	}
	if doms := d.Dominators(b[3]); len(doms) != 2 || doms[0] != b[0] || doms[1] != b[3] {
		t.Errorf("Dominators(b3) = %v, want [b0 b3]", doms)
	}

	df := d.DominanceFrontier()
	if got := frontierIDs(df, b[1]); !eqInts(got, []int{3}) {
		t.Errorf("DF(b1) = %v, want [3]", got)
	}
	if got := frontierIDs(df, b[2]); !eqInts(got, []int{3}) {
		t.Errorf("DF(b2) = %v, want [3]", got)
	}
	if got := frontierIDs(df, b[0]); len(got) != 0 {
		t.Errorf("DF(b0) = %v, want empty (entry dominates the join)", got)
	}
	if got := frontierIDs(df, b[3]); len(got) != 0 {
		t.Errorf("DF(b3) = %v, want empty", got)
	}
	if be := BackEdges(f); len(be) != 0 {
		t.Errorf("diamond has no back edges, got %v", be)
	}
}

// TestDomLoop: a while loop with a header, body, and exit.
//
//	0 → 1 (header), 1 → 2 (body), 2 → 1 (back edge), 1 → 3 (exit)
func TestDomLoop(t *testing.T) {
	f, b := cfg(t, 4, [][2]int{{0, 1}, {1, 2}, {2, 1}, {1, 3}})
	d := ComputeDom(f)

	wantIdom := map[int]int{1: 0, 2: 1, 3: 1}
	for id, want := range wantIdom {
		if got := d.IDom(b[id]); got != b[want] {
			t.Errorf("idom(b%d) = %v, want b%d", id, got, want)
		}
	}
	if !d.Dominates(b[1], b[2]) || !d.Dominates(b[1], b[3]) {
		t.Error("the header dominates the body and the exit")
	}
	if d.Dominates(b[2], b[3]) {
		t.Error("the body does not dominate the exit")
	}

	df := d.DominanceFrontier()
	// The body's frontier is the header (it feeds the back edge); the
	// header is in its own frontier, which is what places loop phis.
	if got := frontierIDs(df, b[2]); !eqInts(got, []int{1}) {
		t.Errorf("DF(b2) = %v, want [1]", got)
	}
	if got := frontierIDs(df, b[1]); !eqInts(got, []int{1}) {
		t.Errorf("DF(b1) = %v, want [1] (loop header is in its own frontier)", got)
	}

	be := BackEdges(f)
	if len(be) != 1 || !be[[2]*Block{b[2], b[1]}] {
		t.Errorf("BackEdges = %v, want exactly {b2→b1}", be)
	}
}

// TestDomIrreducible: a loop with two entries — the canonical
// irreducible CFG. Neither loop block dominates the other, so both
// idoms collapse to the branch block.
//
//	0 → 1, 0 → 2, 1 → 2, 2 → 1, 1 → 3
func TestDomIrreducible(t *testing.T) {
	f, b := cfg(t, 4, [][2]int{{0, 1}, {0, 2}, {1, 2}, {2, 1}, {1, 3}})
	d := ComputeDom(f)

	wantIdom := map[int]int{1: 0, 2: 0, 3: 1}
	for id, want := range wantIdom {
		if got := d.IDom(b[id]); got != b[want] {
			t.Errorf("idom(b%d) = %v, want b%d", id, got, want)
		}
	}
	if d.Dominates(b[1], b[2]) || d.Dominates(b[2], b[1]) {
		t.Error("neither entry of an irreducible loop dominates the other")
	}

	df := d.DominanceFrontier()
	// Each loop block is in the other's frontier (it feeds the other's
	// merge), but neither is in its own: a block's predecessors here are
	// never dominated by the block itself.
	if got := frontierIDs(df, b[1]); !eqInts(got, []int{2}) {
		t.Errorf("DF(b1) = %v, want [2]", got)
	}
	if got := frontierIDs(df, b[2]); !eqInts(got, []int{1}) {
		t.Errorf("DF(b2) = %v, want [1]", got)
	}
}

// TestDomLinear: a straight-line chain has trivial dominators and
// empty frontiers.
func TestDomLinear(t *testing.T) {
	f, b := cfg(t, 3, [][2]int{{0, 1}, {1, 2}})
	d := ComputeDom(f)
	if d.IDom(b[2]) != b[1] || d.IDom(b[1]) != b[0] {
		t.Error("chain idoms must follow the chain")
	}
	for _, blk := range b {
		if got := frontierIDs(d.DominanceFrontier(), blk); len(got) != 0 {
			t.Errorf("chain has no merge points, DF(b%d) = %v", blk.ID, got)
		}
	}
	rpo := ReversePostorder(f)
	if len(rpo) != 3 || rpo[0] != b[0] || rpo[2] != b[2] {
		t.Errorf("ReversePostorder = %v", rpo)
	}
}

// TestDomNestedLoops: an outer loop containing an inner loop; the
// inner header's frontier reaches both headers.
//
//	0 → 1 (outer header), 1 → 2 (inner header), 2 → 2 (self loop),
//	2 → 1 (outer back edge), 1 → 3 (exit)
func TestDomNestedLoops(t *testing.T) {
	f, b := cfg(t, 4, [][2]int{{0, 1}, {1, 2}, {2, 2}, {2, 1}, {1, 3}})
	d := ComputeDom(f)
	if d.IDom(b[2]) != b[1] {
		t.Errorf("idom(b2) = %v, want b1", d.IDom(b[2]))
	}
	df := d.DominanceFrontier()
	if got := frontierIDs(df, b[2]); !eqInts(got, []int{1, 2}) {
		t.Errorf("DF(b2) = %v, want [1 2] (both loop headers)", got)
	}
	be := BackEdges(f)
	if len(be) != 2 || !be[[2]*Block{b[2], b[2]}] || !be[[2]*Block{b[2], b[1]}] {
		t.Errorf("BackEdges = %v, want {b2→b2, b2→b1}", be)
	}
}
