package ir

// Pruned-SSA construction on top of the dominator tree: dominance
// frontiers, phi placement restricted to blocks where the promoted
// variable is live-in, and mem2reg promotion of non-escaping allocas.
//
// The on-the-fly builder (builder.go) already produces SSA for scalar
// locals, but address-taken scalars are demoted to memory: their
// "alloca" is an OpUnknown value named "addrof.<var>" and every access
// goes through explicit OpLoad/OpStore. The checker encodes each such
// load as a distinct opaque solver variable, so structurally identical
// computations downstream of two loads of the same variable never
// share terms. PromoteAllocas rewrites those loads back into SSA
// values, which is what lets the bv builder hash-cons whole-function
// value graphs.
//
// Semantics are judged against the concrete C* evaluator (exec.go):
// memory in C* is zero-initialized, so a load with no dominating store
// reads 0, and promotion materializes that ⊥ value as const 0.

import "strings"

// DominanceFrontier returns DF(b) for every block: the blocks w such
// that b dominates a predecessor of w but not w itself (Cooper,
// Harvey, Kennedy). Phi placement for a definition in b needs exactly
// the iterated frontier of b.
func (d *DomTree) DominanceFrontier() map[*Block][]*Block {
	df := make(map[*Block][]*Block, len(d.rpo))
	seen := make(map[[2]*Block]bool)
	for _, b := range d.rpo {
		if len(b.Preds) < 2 {
			continue
		}
		for _, p := range b.Preds {
			if _, ok := d.idom[p]; !ok {
				continue // unreachable predecessor
			}
			for runner := p; runner != d.idom[b]; runner = d.idom[runner] {
				if !seen[[2]*Block{runner, b}] {
					seen[[2]*Block{runner, b}] = true
					df[runner] = append(df[runner], b)
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

// allocaInfo is the per-alloca analysis state of PromoteAllocas.
type allocaInfo struct {
	addr    *Value
	width   int
	loads   []*Value
	stores  []*Value
	aliases []*Value // phis that always carry this alloca's address
}

// isAlloca reports whether v is a builder-emitted abstract stack slot.
func isAlloca(v *Value) bool {
	return v.Op == OpUnknown && strings.HasPrefix(v.AuxName, "addrof.")
}

// PromoteAllocas performs mem2reg over f: every alloca whose address
// is used only as the address operand of loads and stores (it never
// escapes into a call, a store's value operand, pointer arithmetic, or
// a comparison) is rewritten into SSA form — loads become the reaching
// definition, phis are placed on the iterated dominance frontier of
// the store blocks pruned to blocks where the variable is live-in, and
// the loads, stores, and the alloca itself are deleted. dom must be
// f's current dominator tree; the CFG itself (blocks and edges) is not
// changed, so dom remains valid afterwards.
func PromoteAllocas(f *Func, dom *DomTree) SSAStats {
	var stats SSAStats
	cands := collectAllocas(f)
	if len(cands) == 0 {
		return stats
	}
	df := dom.DominanceFrontier()
	children := domChildren(f, dom)
	for _, info := range cands {
		promoteOne(f, dom, df, children, info, &stats)
	}
	return stats
}

// collectAllocas finds promotable allocas: address values used only as
// Load/Store address operands, with one consistent access width.
func collectAllocas(f *Func) []*allocaInfo {
	infos := map[*Value]*allocaInfo{}
	for _, b := range f.Blocks {
		for _, v := range b.Instrs {
			if isAlloca(v) {
				infos[v] = &allocaInfo{addr: v}
			}
		}
	}
	if len(infos) == 0 {
		return nil
	}
	// The on-the-fly builder threads a pointer variable's value through
	// block-boundary phis, so the address of a promotable alloca often
	// reaches its loads via a chain of phis. A phi whose every argument
	// (ignoring itself — loop-carried pointers self-reference) carries
	// the same alloca's address is an alias of that address; the alias
	// closure grows to a fixed point, pessimistically, so a phi mixing
	// an alloca address with anything else never joins and instead
	// escapes the alloca below.
	aliasOf := map[*Value]*allocaInfo{}
	for addr, info := range infos {
		aliasOf[addr] = info
	}
	for changed := true; changed; {
		changed = false
		for _, b := range f.Blocks {
			for _, v := range b.Instrs {
				if v.Op != OpPhi || aliasOf[v] != nil {
					continue
				}
				var target *allocaInfo
				ok := true
				for _, a := range v.Args {
					if a == nil || a == v {
						continue
					}
					ai := aliasOf[a]
					if ai == nil || (target != nil && target != ai) {
						ok = false
						break
					}
					target = ai
				}
				if ok && target != nil {
					aliasOf[v] = target
					target.aliases = append(target.aliases, v)
					changed = true
				}
			}
		}
	}
	escaped := map[*Value]bool{}
	for _, b := range f.Blocks {
		for v := range b.All() {
			for i, a := range v.Args {
				info := aliasOf[a]
				if info == nil {
					continue
				}
				switch {
				case v.Op == OpLoad && i == 0:
					info.loads = append(info.loads, v)
				case v.Op == OpStore && i == 0:
					info.stores = append(info.stores, v)
				case aliasOf[v] == info:
					// An alias phi consuming the address (or another
					// alias of it); deleted with the alloca on commit.
				default:
					// Call argument, store value operand, pointer
					// arithmetic, comparison, non-alias phi, ...: the
					// address is observable, so memory stays
					// authoritative.
					escaped[info.addr] = true
				}
			}
		}
	}
	var out []*allocaInfo
	for _, info := range infos {
		if escaped[info.addr] {
			continue
		}
		w := 0
		ok := true
		for _, l := range info.loads {
			if w == 0 {
				w = l.Width
			} else if l.Width != w {
				ok = false
			}
		}
		for _, s := range info.stores {
			sw := s.Args[1].Width
			if w == 0 {
				w = sw
			} else if sw != w {
				ok = false
			}
		}
		if !ok || w == 0 {
			continue // mixed widths, or an alloca nothing touches
		}
		info.width = w
		out = append(out, info)
	}
	// Deterministic processing order (map iteration above is not).
	sortAllocas(out)
	return out
}

func sortAllocas(infos []*allocaInfo) {
	for i := 1; i < len(infos); i++ {
		for j := i; j > 0 && infos[j].addr.ID < infos[j-1].addr.ID; j-- {
			infos[j], infos[j-1] = infos[j-1], infos[j]
		}
	}
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

// addrSet returns every value denoting this alloca's address: the
// alloca itself plus its alias phis.
func (info *allocaInfo) addrSet() map[*Value]bool {
	s := make(map[*Value]bool, 1+len(info.aliases))
	s[info.addr] = true
	for _, a := range info.aliases {
		s[a] = true
	}
	return s
}

// liveIn computes the blocks where the alloca is live on entry: a path
// from the block's start reaches a load with no store in between. Phi
// placement is pruned to this set.
func liveIn(info *allocaInfo, isAddr map[*Value]bool) map[*Block]bool {
	hasStore := map[*Block]bool{}
	for _, s := range info.stores {
		hasStore[s.Block] = true
	}
	// Upward-exposed loads: a load not preceded by a store in its own
	// block.
	live := map[*Block]bool{}
	var wl []*Block
	for _, l := range info.loads {
		b := l.Block
		exposed := true
		for _, v := range b.Instrs {
			if v == l {
				break
			}
			if v.Op == OpStore && isAddr[v.Args[0]] {
				exposed = false
				break
			}
		}
		if exposed && !live[b] {
			live[b] = true
			wl = append(wl, b)
		}
	}
	for len(wl) > 0 {
		b := wl[len(wl)-1]
		wl = wl[:len(wl)-1]
		for _, p := range b.Preds {
			if !hasStore[p] && !live[p] {
				live[p] = true
				wl = append(wl, p)
			}
		}
	}
	return live
}

// promoteOne rewrites a single alloca into SSA form.
func promoteOne(f *Func, dom *DomTree, df map[*Block][]*Block, children [][]*Block, info *allocaInfo, stats *SSAStats) {
	isAddr := info.addrSet()
	live := liveIn(info, isAddr)

	// Pruned phi placement: iterated dominance frontier of the store
	// blocks, restricted to live-in blocks.
	phiAt := map[*Block]*Value{}
	isDef := map[*Block]bool{}
	var wl []*Block
	for _, s := range info.stores {
		if !isDef[s.Block] {
			isDef[s.Block] = true
			wl = append(wl, s.Block)
		}
	}
	for len(wl) > 0 {
		b := wl[len(wl)-1]
		wl = wl[:len(wl)-1]
		for _, w := range df[b] {
			if phiAt[w] != nil || !live[w] {
				continue
			}
			phi := &Value{
				ID:    f.NewValueID(),
				Op:    OpPhi,
				Width: info.width,
				Args:  make([]*Value, len(w.Preds)),
				Block: w,
			}
			phiAt[w] = phi
			if !isDef[w] {
				isDef[w] = true
				wl = append(wl, w)
			}
		}
	}

	// Rename walk over the dominator tree. nil means ⊥ (no store on
	// any path yet); C* memory is zero-initialized, so ⊥ reads as 0.
	replacement := map[*Value]*Value{} // load -> reaching definition
	resolve := func(v *Value) *Value {
		for {
			r, ok := replacement[v]
			if !ok {
				return v
			}
			v = r
		}
	}
	var undef *Value // lazily materialized const 0 in the entry block
	materializeUndef := func() *Value {
		if undef == nil {
			undef = &Value{
				ID:    f.NewValueID(),
				Op:    OpConst,
				Width: info.width,
				Aux:   0,
				Block: f.Entry,
			}
			// Prepend: the entry has no phis and dominates every use.
			// No source position, so report anchoring (which skips
			// position-less values) is unaffected.
			f.Entry.Instrs = append([]*Value{undef}, f.Entry.Instrs...)
		}
		return undef
	}
	var walk func(b *Block, cur *Value)
	walk = func(b *Block, cur *Value) {
		if phi := phiAt[b]; phi != nil {
			cur = phi
		}
		for _, v := range b.Instrs {
			switch {
			case v.Op == OpLoad && isAddr[v.Args[0]]:
				def := cur
				if def == nil {
					def = materializeUndef()
				}
				replacement[v] = def
			case v.Op == OpStore && isAddr[v.Args[0]]:
				cur = resolve(v.Args[1])
			}
		}
		for _, s := range b.Succs {
			phi := phiAt[s]
			if phi == nil {
				continue
			}
			def := cur
			if def == nil {
				def = materializeUndef()
			}
			for i, p := range s.Preds {
				if p == b {
					phi.Args[i] = def
				}
			}
		}
		for _, c := range children[b.ID] {
			walk(c, cur)
		}
	}
	if f.Entry != nil {
		walk(f.Entry, nil)
	}

	// Insert the phis (kept out of the instruction stream during the
	// walk so the load/store scan above sees the original block
	// layout). Phis go at the head of the block's phi group.
	for b, phi := range phiAt {
		b.Instrs = append([]*Value{phi}, b.Instrs...)
	}

	// Commit: rewrite every use of a promoted load, then delete the
	// loads, stores, the alloca, and its alias phis (whose only uses
	// are those loads, stores, and each other).
	dead := map[*Value]bool{}
	for a := range isAddr {
		dead[a] = true
	}
	for _, l := range info.loads {
		dead[l] = true
	}
	for _, s := range info.stores {
		dead[s] = true
	}
	for _, b := range f.Blocks {
		for v := range b.All() {
			if dead[v] {
				continue
			}
			for i, a := range v.Args {
				v.Args[i] = resolve(a)
			}
		}
	}
	for _, phi := range phiAt {
		for i, a := range phi.Args {
			if a != nil {
				phi.Args[i] = resolve(a)
			}
		}
	}
	for _, b := range f.Blocks {
		kept := b.Instrs[:0]
		for _, v := range b.Instrs {
			if !dead[v] {
				kept = append(kept, v)
			}
		}
		b.Instrs = kept
	}

	removeTrivialPromotedPhis(f, phiAt)

	stats.PromotedAllocas++
	stats.PlacedPhis += len(phiAt)
	stats.RemovedLoads += len(info.loads)
	stats.RemovedStores += len(info.stores)
}

// removeTrivialPromotedPhis deletes phis from phiAt whose operands are
// all the same value (or the phi itself), redirecting their uses, and
// iterates to a fixed point: removing one trivial phi can make
// another one trivial.
func removeTrivialPromotedPhis(f *Func, phiAt map[*Block]*Value) {
	redirect := map[*Value]*Value{}
	resolve := func(v *Value) *Value {
		for {
			r, ok := redirect[v]
			if !ok {
				return v
			}
			v = r
		}
	}
	for changed := true; changed; {
		changed = false
		for b, phi := range phiAt {
			if phi == nil {
				continue
			}
			var same *Value
			trivial := true
			for _, a := range phi.Args {
				if a == nil {
					continue
				}
				a = resolve(a)
				if a == phi || a == same {
					continue
				}
				if same != nil {
					trivial = false
					break
				}
				same = a
			}
			if !trivial || same == nil {
				continue
			}
			redirect[phi] = same
			phiAt[b] = nil
			changed = true
		}
	}
	if len(redirect) == 0 {
		return
	}
	deadPhi := map[*Value]bool{}
	for phi := range redirect {
		deadPhi[phi] = true
	}
	for _, b := range f.Blocks {
		for v := range b.All() {
			if deadPhi[v] {
				continue
			}
			for i, a := range v.Args {
				if a != nil {
					v.Args[i] = resolve(a)
				}
			}
		}
		kept := b.Instrs[:0]
		for _, v := range b.Instrs {
			if !deadPhi[v] {
				kept = append(kept, v)
			}
		}
		b.Instrs = kept
	}
}
