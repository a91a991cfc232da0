package ir

// Dominator-tree computation using the Cooper–Harvey–Kennedy iterative
// algorithm over a reverse postorder. STACK restricts the well-defined
// program assumption for a fragment e to e's dominators (paper §4.4,
// eq. 5/6), so this analysis is on the checker's hot path.

import "slices"

// DomTree holds immediate dominators and derived queries for one Func.
// Its tables are indexed by Block.ID, as every per-block table of the
// SSA passes is.
type DomTree struct {
	fn       *Func
	idom     []*Block // by Block.ID; nil for a block not yet processed
	rpo      []*Block
	rpoIndex []int32 // by Block.ID: the block's index in rpo
}

// ComputeDom returns the dominator tree of f. Blocks unreachable from
// the entry must have been removed first.
func ComputeDom(f *Func) *DomTree {
	d := &DomTree{
		fn:       f,
		idom:     make([]*Block, len(f.Blocks)),
		rpoIndex: make([]int32, len(f.Blocks)),
	}
	d.rpo = ReversePostorder(f)
	for i, b := range d.rpo {
		d.rpoIndex[b.ID] = int32(i)
	}
	if len(d.rpo) == 0 {
		return d
	}
	entry := d.rpo[0]
	d.idom[entry.ID] = entry
	for changed := true; changed; {
		changed = false
		for _, b := range d.rpo[1:] {
			var newIdom *Block
			for _, p := range b.Preds {
				if d.idom[p.ID] == nil {
					continue // not yet processed
				}
				if newIdom == nil {
					newIdom = p
					continue
				}
				newIdom = d.intersect(p, newIdom)
			}
			if newIdom != nil && d.idom[b.ID] != newIdom {
				d.idom[b.ID] = newIdom
				changed = true
			}
		}
	}
	return d
}

func (d *DomTree) intersect(a, b *Block) *Block {
	for a != b {
		for d.rpoIndex[a.ID] > d.rpoIndex[b.ID] {
			a = d.idom[a.ID]
		}
		for d.rpoIndex[b.ID] > d.rpoIndex[a.ID] {
			b = d.idom[b.ID]
		}
	}
	return a
}

// IDom returns the immediate dominator of b (the entry dominates
// itself).
func (d *DomTree) IDom(b *Block) *Block { return d.idom[b.ID] }

// Dominates reports whether a dominates b (reflexive).
func (d *DomTree) Dominates(a, b *Block) bool {
	for {
		if a == b {
			return true
		}
		parent := d.idom[b.ID]
		if parent == nil || parent == b {
			return false
		}
		b = parent
	}
}

// Dominators returns b's dominators from entry down to b itself.
func (d *DomTree) Dominators(b *Block) []*Block {
	var rev []*Block
	for {
		rev = append(rev, b)
		parent := d.idom[b.ID]
		if parent == nil || parent == b {
			break
		}
		b = parent
	}
	out := make([]*Block, len(rev))
	for i, blk := range rev {
		out[len(rev)-1-i] = blk
	}
	return out
}

// ReversePostorder returns f's blocks in reverse postorder of a DFS
// from the entry.
func ReversePostorder(f *Func) []*Block {
	order := make([]*Block, 0, len(f.Blocks))
	seen := make([]bool, len(f.Blocks)) // by Block.ID
	var dfs func(*Block)
	dfs = func(b *Block) {
		seen[b.ID] = true
		for _, s := range b.Succs {
			if !seen[s.ID] {
				dfs(s)
			}
		}
		order = append(order, b)
	}
	if f.Entry != nil {
		dfs(f.Entry)
	}
	slices.Reverse(order)
	return order
}

// BackEdges returns the set of CFG edges (from, to) where to is an
// ancestor of from in the DFS tree — loop back edges. STACK's
// intra-function reachability analysis widens values that flow along
// these edges (DESIGN.md: approximations).
func BackEdges(f *Func) map[[2]*Block]bool {
	back := map[[2]*Block]bool{}
	state := map[*Block]int{} // 0 unvisited, 1 on stack, 2 done
	var dfs func(*Block)
	dfs = func(b *Block) {
		state[b] = 1
		for _, s := range b.Succs {
			switch state[s] {
			case 0:
				dfs(s)
			case 1:
				back[[2]*Block{b, s}] = true
			}
		}
		state[b] = 2
	}
	if f.Entry != nil {
		dfs(f.Entry)
	}
	return back
}
