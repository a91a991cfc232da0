package ir

// Pruned-SSA construction on top of the dominator tree: dominance
// frontiers, phi placement restricted to blocks where the promoted
// variable is live-in, and the renaming walk of mem2reg. It is the one
// place where variable phis are placed.
//
// The builder (builder.go) gives every named local and parameter a
// stack slot, as every local starts as an alloca in LLVM: an OpUnknown
// value named "addrof.<var>" that reads load from and writes store to.
// It then promotes the slots whose address the source never takes
// (promoteLocals). A slot whose address is taken stays in memory, and
// the checker encodes each load from it as a distinct opaque solver
// variable, so structurally identical computations downstream of two
// loads of the same variable never share terms. PromoteAllocas, the
// first pass of RunSSAPasses, rewrites those slots whose address does
// not escape, which is what lets the bv builder hash-cons whole-
// function value graphs.
//
// A load that no store reaches reads ⊥. Semantics are judged against
// the concrete C* evaluator (exec.go), whose memory is
// zero-initialized, so PromoteAllocas materializes ⊥ as const 0. The
// builder materializes it as an opaque "uninit.<var>" value instead,
// because the checker does not model uninitialized use (paper §4.6).

import (
	"slices"
	"strings"
)

// DominanceFrontier returns DF(b) for every block b, indexed by
// Block.ID: the blocks w such that b dominates a predecessor of w but
// not w itself (Cooper, Harvey, Kennedy). Phi placement for a
// definition in b needs exactly the iterated frontier of b.
func (d *DomTree) DominanceFrontier() [][]*Block {
	df := make([][]*Block, len(d.fn.Blocks))
	last := make([]int32, len(d.fn.Blocks)) // 1 + ID of the join last added to DF(runner)
	for _, b := range d.rpo {
		if len(b.Preds) < 2 {
			continue
		}
		for _, p := range b.Preds {
			if d.idom[p] == nil {
				continue // unreachable predecessor
			}
			for runner := p; runner != d.idom[b]; runner = d.idom[runner] {
				if last[runner.ID] != int32(b.ID+1) {
					last[runner.ID] = int32(b.ID + 1)
					df[runner.ID] = append(df[runner.ID], b)
				}
				if runner == d.idom[runner] {
					break // entry
				}
			}
		}
	}
	return df
}

// SSAStats counts what mem2reg did to one function.
type SSAStats struct {
	PromotedAllocas int // allocas fully rewritten into SSA values
	PlacedPhis      int // phis inserted by pruned placement
	RemovedLoads    int // loads replaced by reaching definitions
	RemovedStores   int // stores deleted with their alloca
}

// allocaInfo is one slot to promote: its address, the width of the
// values it holds, and the phis that always carry its address.
type allocaInfo struct {
	addr    *Value
	width   int
	aliases []*Value

	escaped bool // collectAllocas: the address is observable
}

// isAlloca reports whether v is a builder-emitted abstract stack slot.
func isAlloca(v *Value) bool {
	return v.Op == OpUnknown && strings.HasPrefix(v.AuxName, "addrof.")
}

// PromoteAllocas performs mem2reg over f: every alloca whose address
// is used only as the address operand of loads and stores (it never
// escapes into a call, a store's value operand, pointer arithmetic, or
// a comparison) is rewritten into SSA form, with ⊥ read as const 0.
// dom must be f's current dominator tree; the CFG itself (blocks and
// edges) is not changed, so dom remains valid afterwards.
func PromoteAllocas(f *Func, dom *DomTree) SSAStats {
	return promoteSlots(f, dom, collectAllocas(f), func(s *allocaInfo) *Value {
		// No source position, so report anchoring (which skips
		// position-less values) is unaffected.
		return &Value{Op: OpConst, Width: s.width}
	})
}

// promoteLocals promotes the builder's slots of scalar locals whose
// address was never taken, with ⊥ read as an opaque uninit value.
func promoteLocals(f *Func, slots []*allocaInfo) {
	if len(slots) == 0 {
		return
	}
	promoteSlots(f, ComputeDom(f), slots, func(s *allocaInfo) *Value {
		return &Value{Op: OpUnknown, Width: s.width, AuxName: "uninit." + strings.TrimPrefix(s.addr.AuxName, "addrof.")}
	})
}

// collectAllocas finds promotable allocas: address values used only as
// Load/Store address operands, with one consistent access width.
func collectAllocas(f *Func) []*allocaInfo {
	aliasOf := make([]*allocaInfo, f.numValueIDs())
	var infos []*allocaInfo
	for _, b := range f.Blocks {
		for _, v := range b.Instrs {
			if isAlloca(v) {
				aliasOf[v.ID] = &allocaInfo{addr: v}
				infos = append(infos, aliasOf[v.ID])
			}
		}
	}
	if len(infos) == 0 {
		return nil
	}
	// The address of a slot can reach its loads through phis, when a
	// pointer variable holding it is live across a join. A phi whose
	// every argument (ignoring itself — loop-carried pointers
	// self-reference) carries the same alloca's address is an alias of
	// that address; the alias closure grows to a fixed point,
	// pessimistically, so a phi mixing an alloca address with anything
	// else never joins and instead escapes the alloca below.
	for changed := true; changed; {
		changed = false
		for _, b := range f.Blocks {
			for _, v := range b.Instrs {
				if v.Op != OpPhi || aliasOf[v.ID] != nil {
					continue
				}
				var target *allocaInfo
				ok := true
				for _, a := range v.Args {
					if a == nil || a == v {
						continue
					}
					ai := aliasOf[a.ID]
					if ai == nil || (target != nil && target != ai) {
						ok = false
						break
					}
					target = ai
				}
				if ok && target != nil {
					aliasOf[v.ID] = target
					target.aliases = append(target.aliases, v)
					changed = true
				}
			}
		}
	}
	// access records one load or store of width w through info.
	access := func(info *allocaInfo, w int) {
		if info.width == 0 {
			info.width = w
		} else if info.width != w {
			info.escaped = true // mixed widths
		}
	}
	for _, b := range f.Blocks {
		for v := range b.All() {
			for i, a := range v.Args {
				if a == nil || aliasOf[a.ID] == nil {
					continue
				}
				info := aliasOf[a.ID]
				switch {
				case v.Op == OpLoad && i == 0:
					access(info, v.Width)
				case v.Op == OpStore && i == 0:
					access(info, v.Args[1].Width)
				case aliasOf[v.ID] == info:
					// An alias phi consuming the address (or another
					// alias of it); deleted with the alloca on commit.
				default:
					// Call argument, store value operand, pointer
					// arithmetic, comparison, non-alias phi, ...: the
					// address is observable, so memory stays
					// authoritative.
					info.escaped = true
				}
			}
		}
	}
	// An alloca nothing touches (width 0) is left alone. Promotion
	// runs in ID order, which numbers the values it creates the same
	// in every build.
	infos = slices.DeleteFunc(infos, func(info *allocaInfo) bool { return info.escaped || info.width == 0 })
	slices.SortFunc(infos, func(a, b *allocaInfo) int { return a.addr.ID - b.addr.ID })
	return infos
}

// domChildren returns the dominator tree's child lists, indexed by
// Block.ID, each in f.Blocks order. The lists share one backing array.
func domChildren(f *Func, dom *DomTree) [][]*Block {
	start := make([]int32, len(f.Blocks)+1)
	for _, b := range f.Blocks {
		if p := dom.IDom(b); p != nil && p != b {
			start[p.ID+1]++
		}
	}
	for i := 1; i < len(start); i++ {
		start[i] += start[i-1]
	}
	flat := make([]*Block, start[len(f.Blocks)])
	children := make([][]*Block, len(f.Blocks))
	for i := range children {
		children[i] = flat[start[i]:start[i]:start[i+1]]
	}
	for _, b := range f.Blocks {
		if p := dom.IDom(b); p != nil && p != b {
			children[p.ID] = append(children[p.ID], b)
		}
	}
	return children
}

// promoteSlots rewrites every slot of slots into SSA form. Each
// slot's address (or an alias of it) must be used only as the address
// operand of loads and stores, and every store must store a value of
// the slot's width. For each slot, phis are placed on the iterated
// dominance frontier of its store blocks, pruned to the blocks where
// it is live-in; then one walk over the dominator tree renames the
// loads of all slots to their reaching definitions, and one pass over
// the blocks deletes the loads, the stores, the slots and their alias
// phis. bottom makes the value a slot reads where no store reaches;
// it is made at most once per slot and placed at the head of the
// entry block, which dominates every use. The CFG is not changed.
//
// A load or phi that promotion replaces is unlinked from its block
// (Block == nil) and left with its replacement as Args[0], so no
// table the size of the function records replacements.
func promoteSlots(f *Func, dom *DomTree, slots []*allocaInfo, bottom func(*allocaInfo) *Value) SSAStats {
	var stats SSAStats
	if len(slots) == 0 || f.Entry == nil {
		return stats
	}
	// slotOf maps the ID of a slot's address, or of an alias of it, to
	// one more than the slot's index. It covers the values that exist
	// now, which are all the loads, stores and addresses there are.
	n := f.numValueIDs()
	slotOf := make([]int32, n)
	for i, s := range slots {
		slotOf[s.addr.ID] = int32(i + 1)
		for _, a := range s.aliases {
			slotOf[a.ID] = int32(i + 1)
		}
	}
	// slotAt returns the index of the slot v loads or stores, or -1.
	slotAt := func(v *Value) int {
		if (v.Op == OpLoad || v.Op == OpStore) && v.Block != nil && v.ID < n {
			return int(slotOf[v.Args[0].ID]) - 1
		}
		return -1
	}
	resolve := func(v *Value) *Value {
		for v != nil && v.Block == nil {
			v = v.Args[0]
		}
		return v
	}

	// One scan lists each slot's store blocks (defs) and the blocks
	// where a load of it is not preceded by a store in the same block
	// (uses), each pair once; sorting groups the lists by slot.
	type slotBlock struct {
		slot int
		b    *Block
	}
	k := len(slots)
	defs, uses := make([]slotBlock, 0, k), make([]slotBlock, 0, k)
	lastDef := make([]int32, 2*k) // 1 + ID of the block last listed, per slot
	lastUse := lastDef[k:]
	for _, b := range f.Blocks {
		mark := int32(b.ID + 1)
		for _, v := range b.Instrs {
			switch s := slotAt(v); {
			case s < 0:
			case v.Op == OpStore:
				if lastDef[s] != mark {
					lastDef[s] = mark
					defs = append(defs, slotBlock{s, b})
				}
			case lastDef[s] != mark && lastUse[s] != mark:
				lastUse[s] = mark
				uses = append(uses, slotBlock{s, b})
			}
		}
	}
	bySlot := func(x, y slotBlock) int { return x.slot - y.slot }
	slices.SortStableFunc(defs, bySlot)
	slices.SortStableFunc(uses, bySlot)
	// take removes the leading pairs of slot s from *l and returns them.
	take := func(l *[]slotBlock, s int) []slotBlock {
		i := 0
		for i < len(*l) && (*l)[i].slot == s {
			i++
		}
		out := (*l)[:i]
		*l = (*l)[i:]
		return out
	}

	// Phi placement, one slot at a time. The per-block marks hold
	// 1 + the index of the slot they were last set for, so no slot
	// clears them for the next.
	df := dom.DominanceFrontier()
	nb := len(f.Blocks)
	marks := make([]int32, 4*nb)
	stored := marks[:nb]         // the block stores to the slot
	live := marks[nb : 2*nb]     // the slot is live on entry to the block
	queued := marks[2*nb : 3*nb] // the block defines the slot: a store or a phi
	hasPhi := marks[3*nb:]       // a phi for the slot was placed in the block
	phiAt := make([][]*Value, nb)
	var phiSlot []int32 // by phi ID - n: the slot the phi merges
	var phis []*Value
	var wl []*Block
	for s, info := range slots {
		stamp := int32(s + 1)
		sDefs := take(&defs, s)
		for _, d := range sDefs {
			stored[d.b.ID] = stamp
		}
		// Live-in blocks: a path from the block's start reaches a
		// load with no store in between.
		for _, u := range take(&uses, s) {
			live[u.b.ID] = stamp
			wl = append(wl, u.b)
		}
		for len(wl) > 0 {
			b := wl[len(wl)-1]
			wl = wl[:len(wl)-1]
			for _, p := range b.Preds {
				if stored[p.ID] != stamp && live[p.ID] != stamp {
					live[p.ID] = stamp
					wl = append(wl, p)
				}
			}
		}
		// Pruned placement: the iterated dominance frontier of the
		// store blocks, restricted to live-in blocks.
		for _, d := range sDefs {
			queued[d.b.ID] = stamp
			wl = append(wl, d.b)
		}
		for len(wl) > 0 {
			b := wl[len(wl)-1]
			wl = wl[:len(wl)-1]
			for _, w := range df[b.ID] {
				if live[w.ID] != stamp || hasPhi[w.ID] == stamp {
					continue
				}
				hasPhi[w.ID] = stamp
				phi := &Value{ID: f.NewValueID(), Op: OpPhi, Width: info.width, Args: make([]*Value, len(w.Preds)), Block: w}
				phiAt[w.ID] = append(phiAt[w.ID], phi)
				phiSlot = append(phiSlot, int32(s))
				phis = append(phis, phi)
				if queued[w.ID] != stamp {
					queued[w.ID] = stamp
					wl = append(wl, w)
				}
			}
		}
	}
	stats.PromotedAllocas = k
	stats.PlacedPhis = len(phis)

	// The renaming walk. cur holds each slot's reaching definition,
	// nil for ⊥; leaving a block restores it from the undo log.
	bottoms := make([]*Value, 2*k)
	cur := bottoms[k:]
	reaching := func(s int) *Value {
		if cur[s] != nil {
			return cur[s]
		}
		if bottoms[s] == nil {
			v := bottom(slots[s])
			v.ID, v.Block = f.NewValueID(), f.Entry
			// The entry has no phis and dominates every use.
			f.Entry.Instrs = append([]*Value{v}, f.Entry.Instrs...)
			bottoms[s] = v
		}
		return bottoms[s]
	}
	type undo struct {
		slot int32
		def  *Value
	}
	var log []undo
	set := func(s int, v *Value) {
		log = append(log, undo{int32(s), cur[s]})
		cur[s] = v
	}
	children := domChildren(f, dom)
	var walk func(b *Block)
	walk = func(b *Block) {
		mark := len(log)
		for _, phi := range phiAt[b.ID] {
			set(int(phiSlot[phi.ID-n]), phi)
		}
		for _, v := range b.Instrs {
			switch s := slotAt(v); {
			case s < 0:
			case v.Op == OpLoad:
				v.Args[0], v.Block = reaching(s), nil
				stats.RemovedLoads++
			default:
				set(s, resolve(v.Args[1]))
			}
		}
		for _, succ := range b.Succs {
			for _, phi := range phiAt[succ.ID] {
				def := reaching(int(phiSlot[phi.ID-n]))
				for i, p := range succ.Preds {
					if p == b {
						phi.Args[i] = def
					}
				}
			}
		}
		for _, c := range children[b.ID] {
			walk(c)
		}
		for len(log) > mark {
			u := log[len(log)-1]
			log = log[:len(log)-1]
			cur[u.slot] = u.def
		}
	}
	walk(f.Entry)

	// A phi whose operands are all one value (or the phi itself) is
	// replaced by that value, to a fixed point: removing one trivial
	// phi can make another one trivial.
	for changed := true; changed; {
		changed = false
		for _, phi := range phis {
			if phi.Block == nil {
				continue
			}
			var same *Value
			trivial := true
			for _, a := range phi.Args {
				a = resolve(a)
				if a == nil || a == phi || a == same {
					continue
				}
				if same != nil {
					trivial = false
					break
				}
				same = a
			}
			if trivial && same != nil {
				phi.Args, phi.Block = phi.Args[:1], nil
				phi.Args[0] = same
				changed = true
			}
		}
	}

	// Commit: place the remaining phis at the head of their blocks,
	// delete the loads, stores, slots and alias phis, and rewrite
	// every operand to what replaces it.
	for _, b := range f.Blocks {
		kept := b.Instrs[:0]
		if len(phiAt[b.ID]) > 0 {
			kept = make([]*Value, 0, len(phiAt[b.ID])+len(b.Instrs))
			for _, phi := range phiAt[b.ID] {
				if phi.Block != nil {
					kept = append(kept, phi)
				}
			}
		}
		for _, v := range b.Instrs {
			switch {
			case v.Block == nil:
				continue // a replaced load
			case slotAt(v) >= 0:
				if v.Op == OpStore {
					stats.RemovedStores++
				} else {
					stats.RemovedLoads++ // in a block the walk did not reach
				}
				continue
			case v.ID < n && slotOf[v.ID] != 0:
				continue // a slot or an alias of one
			}
			kept = append(kept, v)
		}
		b.Instrs = kept
		for v := range b.All() {
			for i, a := range v.Args {
				v.Args[i] = resolve(a)
			}
		}
	}
	return stats
}
