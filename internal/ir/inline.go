package ir

// Function inlining. STACK inlines functions before per-function
// analysis so that unstable code spanning call boundaries is visible
// (paper §4.2), and records the original function of inlined code so
// that report generation can suppress warnings whose unstable fragment
// was not written by the programmer at that site.

// InlineOptions controls the inliner.
type InlineOptions struct {
	// MaxDepth bounds transitive inlining.
	MaxDepth int
	// MaxCalleeValues skips bodies larger than this many values.
	MaxCalleeValues int
}

// DefaultInlineOptions mirror a conventional -O2 inliner posture.
var DefaultInlineOptions = InlineOptions{MaxDepth: 3, MaxCalleeValues: 200}

// InlineProgram inlines calls to functions defined in the same
// program, in place. Inlined instructions keep their position but are
// tagged with Origin = callee name (unless they already carry a macro
// origin, which takes precedence as the outermost user-visible
// construct).
func InlineProgram(p *Program, opts InlineOptions) {
	for _, f := range p.Funcs {
		inlineFunc(p, f, opts, 0)
	}
}

func inlineFunc(p *Program, f *Func, opts InlineOptions, depth int) {
	if depth >= opts.MaxDepth {
		return
	}
	changed := true
	rounds := 0
	for changed && rounds < opts.MaxDepth {
		changed = false
		rounds++
		for _, b := range f.Blocks {
			for i := 0; i < len(b.Instrs); i++ {
				v := b.Instrs[i]
				if v.Op != OpCall {
					continue
				}
				callee := p.Lookup(v.AuxName)
				if callee == nil || callee == f || countValues(callee) > opts.MaxCalleeValues {
					continue
				}
				if callsInto(callee, f.Name, p, map[string]bool{}) {
					continue // avoid mutual recursion blowup
				}
				inlineCall(f, b, i, v, callee)
				changed = true
				break // block structure changed; restart this block
			}
		}
	}
}

func countValues(f *Func) int {
	n := 0
	for _, b := range f.Blocks {
		n += len(b.Instrs) + 1
	}
	return n
}

func callsInto(f *Func, name string, p *Program, seen map[string]bool) bool {
	if seen[f.Name] {
		return false
	}
	seen[f.Name] = true
	for _, b := range f.Blocks {
		for _, v := range b.Instrs {
			if v.Op != OpCall {
				continue
			}
			if v.AuxName == name {
				return true
			}
			if callee := p.Lookup(v.AuxName); callee != nil {
				if callsInto(callee, name, p, seen) {
					return true
				}
			}
		}
	}
	return false
}

// inlineCall splices a copy of callee into f at block b, instruction
// index i (the call instruction).
func inlineCall(f *Func, b *Block, i int, call *Value, callee *Func) {
	// Split b at the call: b keeps Instrs[:i], contB gets Instrs[i+1:]
	// and b's terminator/successors.
	contB := f.NewBlock()
	contB.Instrs = append(contB.Instrs, b.Instrs[i+1:]...)
	for _, v := range contB.Instrs {
		v.Block = contB
	}
	contB.Term = b.Term
	if contB.Term != nil {
		contB.Term.Block = contB
	}
	contB.Succs = b.Succs
	for _, s := range contB.Succs {
		for k, pr := range s.Preds {
			if pr == b {
				s.Preds[k] = contB
			}
		}
	}
	b.Instrs = b.Instrs[:i]
	b.Term = nil
	b.Succs = nil

	// Copy callee blocks and values.
	blockMap := map[*Block]*Block{}
	valueMap := map[*Value]*Value{}
	for _, cb := range callee.Blocks {
		nb := f.NewBlock()
		blockMap[cb] = nb
	}
	// Parameters map to call arguments.
	for pi, pv := range callee.Params {
		if pi < len(call.Args) {
			valueMap[pv] = call.Args[pi]
		}
	}
	origin := func(v *Value) string {
		if v.Origin != "" {
			return v.Origin
		}
		return callee.Name
	}
	// First pass: copy instructions (args patched in second pass).
	for _, cb := range callee.Blocks {
		nb := blockMap[cb]
		for _, cv := range cb.Instrs {
			if _, done := valueMap[cv]; done {
				continue // parameter
			}
			nv := &Value{
				ID: f.NewValueID(), Op: cv.Op, Width: cv.Width,
				Signed: cv.Signed, Aux: cv.Aux, Aux2: cv.Aux2,
				AuxName: cv.AuxName, Block: nb, Pos: call.Pos,
				Origin: origin(cv),
				Args:   append([]*Value(nil), cv.Args...),
			}
			if cv.Op == OpParam {
				// Unmapped parameter (arity mismatch): opaque.
				nv.Op = OpUnknown
			}
			valueMap[cv] = nv
			nb.Instrs = append(nb.Instrs, nv)
		}
	}
	// Preserve predecessor order so phi arguments stay aligned.
	for _, cb := range callee.Blocks {
		nb := blockMap[cb]
		for _, p := range cb.Preds {
			nb.Preds = append(nb.Preds, blockMap[p])
		}
	}
	// Return handling: rets branch to contB; the call's value becomes
	// a phi over returned values (or stays opaque for void).
	var retVals []*Value
	var retPreds []*Block
	for _, cb := range callee.Blocks {
		nb := blockMap[cb]
		ct := cb.Term
		if ct == nil {
			continue
		}
		switch ct.Op {
		case OpRet:
			nt := &Value{ID: f.NewValueID(), Op: OpBr, Block: nb, Pos: call.Pos, Origin: origin(ct)}
			nb.Term = nt
			nb.Succs = []*Block{contB}
			contB.Preds = append(contB.Preds, nb)
			if len(ct.Args) > 0 {
				retVals = append(retVals, ct.Args[0])
				retPreds = append(retPreds, nb)
			}
		default:
			nt := &Value{
				ID: f.NewValueID(), Op: ct.Op, Width: ct.Width,
				Signed: ct.Signed, Aux: ct.Aux, Aux2: ct.Aux2,
				AuxName: ct.AuxName, Block: nb, Pos: call.Pos,
				Origin: origin(ct),
				Args:   append([]*Value(nil), ct.Args...),
			}
			valueMap[ct] = nt
			nb.Term = nt
			for _, s := range ct.Block.Succs {
				nb.Succs = append(nb.Succs, blockMap[s])
			}
		}
	}
	// Second pass: patch args through valueMap.
	patch := func(v *Value) {
		for k, a := range v.Args {
			if na, ok := valueMap[a]; ok {
				v.Args[k] = na
			}
		}
	}
	for _, cb := range callee.Blocks {
		nb := blockMap[cb]
		for _, nv := range nb.Instrs {
			patch(nv)
		}
		if nb.Term != nil {
			patch(nb.Term)
		}
	}
	// Wire the entry.
	entryCopy := blockMap[callee.Entry]
	b.Term = &Value{ID: f.NewValueID(), Op: OpBr, Block: b, Pos: call.Pos}
	b.Succs = []*Block{entryCopy}
	entryCopy.Preds = append(entryCopy.Preds, b)

	// Replace the call's result.
	var replacement *Value
	switch {
	case call.Width == 0:
		replacement = nil
	case len(retVals) == 1:
		replacement = mapped(valueMap, retVals[0])
	case len(retVals) > 1:
		phi := &Value{
			ID: f.NewValueID(), Op: OpPhi, Width: call.Width,
			Block: contB, Pos: call.Pos, Origin: callee.Name,
		}
		// Align phi args with contB.Preds.
		for _, p := range contB.Preds {
			found := false
			for ri, rp := range retPreds {
				if rp == p {
					phi.Args = append(phi.Args, mapped(valueMap, retVals[ri]))
					found = true
					break
				}
			}
			if !found {
				u := &Value{ID: f.NewValueID(), Op: OpUnknown, Width: call.Width, Block: contB, Pos: call.Pos, Origin: callee.Name}
				contB.Instrs = append([]*Value{u}, contB.Instrs...)
				phi.Args = append(phi.Args, u)
			}
		}
		contB.Instrs = append([]*Value{phi}, contB.Instrs...)
		replacement = phi
	default:
		// Non-void function with no value-returning rets (e.g. only
		// falls off): opaque.
		u := &Value{ID: f.NewValueID(), Op: OpUnknown, Width: call.Width, Block: contB, Pos: call.Pos, Origin: callee.Name}
		contB.Instrs = append([]*Value{u}, contB.Instrs...)
		replacement = u
	}
	if replacement != nil {
		ReplaceUses(f, call, replacement)
	}
}

func mapped(m map[*Value]*Value, v *Value) *Value {
	if nv, ok := m[v]; ok {
		return nv
	}
	return v
}

// ReplaceUses points every operand of f that is old at new.
func ReplaceUses(f *Func, old, new *Value) {
	for _, b := range f.Blocks {
		for v := range b.All() {
			for i, a := range v.Args {
				if a == old {
					v.Args[i] = new
				}
			}
		}
	}
}
