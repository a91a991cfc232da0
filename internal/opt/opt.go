// Package opt implements a classic scalar optimizer over the IR plus
// the family of undefined-behavior-exploiting transformations that the
// paper's §2 survey observes in production compilers: pointer-overflow
// check folding, null-check elimination after a dereference,
// signed-overflow check folding, value-range reasoning, oversized-shift
// folding, and abs() folding. Each UB-exploiting transformation can be
// enabled independently, which is how internal/compilers models the
// per-compiler, per-level behavior of Figure 4.
package opt

import (
	"repro/internal/ir"
)

// UBOpt identifies one UB-exploiting optimization, corresponding to
// the columns of the paper's Figure 4.
type UBOpt int

// UB-exploiting optimizations (Fig. 4 columns, left to right).
const (
	// OptPtrOverflow folds p + c < p (unsigned c or constant) to false
	// assuming pointers never overflow.
	OptPtrOverflow UBOpt = iota
	// OptNullCheck eliminates null checks dominated by a dereference.
	OptNullCheck
	// OptSignedOverflow folds x + c < x (signed) to false.
	OptSignedOverflow
	// OptValueRange folds checks using dominating range guards, e.g.
	// x > 0 makes x + 100 < 0 false (gcc 4.x VRP; Fig. 4 column 4).
	OptValueRange
	// OptShift folds 1 << x != 0 to true assuming in-range shifts.
	OptShift
	// OptAbs folds abs(x) < 0 to false assuming no abs overflow.
	OptAbs
	NumUBOpts
)

var ubOptNames = [...]string{
	"ptr-overflow-fold", "null-check-elim", "signed-overflow-fold",
	"value-range-fold", "shift-fold", "abs-fold",
}

func (o UBOpt) String() string { return ubOptNames[o] }

// Config selects which UB-exploiting optimizations run; classic
// optimizations (constant folding, CFG simplification, DCE) always
// run, as they do at every -O level in real compilers.
type Config struct {
	Enabled [NumUBOpts]bool
}

// EnableAll returns a config with every UB-exploiting fold on — the
// posture of the most aggressive surveyed compiler.
func EnableAll() Config {
	var c Config
	for i := range c.Enabled {
		c.Enabled[i] = true
	}
	return c
}

// Result reports what the optimizer did, so harnesses can tell which
// checks were discarded.
type Result struct {
	FoldedChecks int // branch conditions folded via UB reasoning
	UsedOpts     [NumUBOpts]bool
}

// Optimize runs the optimizer over f to a bounded fixpoint.
func Optimize(f *ir.Func, cfg Config) Result {
	var res Result
	for round := 0; round < 8; round++ {
		changed := constFold(f)
		if foldUBChecks(f, cfg, &res) {
			changed = true
		}
		if simplifyCFG(f) {
			changed = true
		}
		if dce(f) {
			changed = true
		}
		if !changed {
			break
		}
	}
	return res
}

// --- classic passes ---------------------------------------------------------

// constFold replaces instructions with constant operands by constants
// and simplifies algebraic identities.
func constFold(f *ir.Func) bool {
	changed := false
	for _, b := range f.Blocks {
		for _, v := range b.Instrs {
			if nv, ok := foldValue(v); ok {
				v.Op = ir.OpConst
				v.Aux = nv
				v.Args = nil
				v.Signed = false
				changed = true
				continue
			}
			if foldBoolCompare(v) {
				changed = true
			}
		}
	}
	return changed
}

// foldBoolCompare rewrites (icmp == 0), (icmp != 0), (icmp == 1),
// (icmp != 1) over an i1 comparison into the (possibly inverted)
// inner comparison — the instcombine that makes `!p`-style checks
// visible to the UB folds.
func foldBoolCompare(v *ir.Value) bool {
	if v.Op != ir.OpICmp || (v.Pred() != ir.CmpEq && v.Pred() != ir.CmpNe) {
		return false
	}
	inner, c := v.Args[0], v.Args[1]
	if inner.Op != ir.OpICmp || inner.Width != 1 || c.Op != ir.OpConst {
		return false
	}
	// eq(x,1) ≡ x; eq(x,0) ≡ ¬x; ne flips.
	invert := (v.Pred() == ir.CmpEq) == (c.Aux == 0)
	pred := inner.Pred()
	args := []*ir.Value{inner.Args[0], inner.Args[1]}
	if invert {
		switch pred {
		case ir.CmpEq:
			pred = ir.CmpNe
		case ir.CmpNe:
			pred = ir.CmpEq
		case ir.CmpULT:
			pred = ir.CmpULE
			args[0], args[1] = args[1], args[0]
		case ir.CmpULE:
			pred = ir.CmpULT
			args[0], args[1] = args[1], args[0]
		case ir.CmpSLT:
			pred = ir.CmpSLE
			args[0], args[1] = args[1], args[0]
		case ir.CmpSLE:
			pred = ir.CmpSLT
			args[0], args[1] = args[1], args[0]
		}
	}
	v.Aux = int64(pred)
	v.Args = args
	return true
}

func cval(v *ir.Value) (int64, bool) {
	if v.Op == ir.OpConst {
		return v.Aux, true
	}
	return 0, false
}

func maskTo(v int64, w int) int64 {
	if w >= 64 {
		return v
	}
	return v & (1<<uint(w) - 1)
}

func sext(v int64, w int) int64 {
	if w >= 64 {
		return v
	}
	v = maskTo(v, w)
	if v&(1<<uint(w-1)) != 0 {
		v |= ^int64(0) << uint(w)
	}
	return v
}

// foldValue computes a constant result if all operands are constant.
func foldValue(v *ir.Value) (int64, bool) {
	allConst := len(v.Args) > 0
	for _, a := range v.Args {
		if a.Op != ir.OpConst {
			allConst = false
			break
		}
	}
	if !allConst {
		return 0, false
	}
	a := func(i int) int64 { return v.Args[i].Aux }
	w := v.Width
	switch v.Op {
	case ir.OpAdd:
		return maskTo(a(0)+a(1), w), true
	case ir.OpSub:
		return maskTo(a(0)-a(1), w), true
	case ir.OpMul:
		return maskTo(a(0)*a(1), w), true
	case ir.OpAnd:
		return a(0) & a(1), true
	case ir.OpOr:
		return a(0) | a(1), true
	case ir.OpXor:
		return a(0) ^ a(1), true
	case ir.OpNot:
		return maskTo(^a(0), w), true
	case ir.OpNeg:
		return maskTo(-a(0), w), true
	case ir.OpSDiv:
		x, y := sext(a(0), w), sext(a(1), w)
		if y == 0 || (y == -1 && x == sext(1<<uint(w-1), w)) {
			return 0, false // UB at runtime; leave in place
		}
		return maskTo(x/y, w), true
	case ir.OpUDiv:
		x, y := uint64(maskTo(a(0), w)), uint64(maskTo(a(1), w))
		if y == 0 {
			return 0, false
		}
		return maskTo(int64(x/y), w), true
	case ir.OpSRem:
		x, y := sext(a(0), w), sext(a(1), w)
		if y == 0 || (y == -1 && x == sext(1<<uint(w-1), w)) {
			return 0, false
		}
		return maskTo(x%y, w), true
	case ir.OpURem:
		x, y := uint64(maskTo(a(0), w)), uint64(maskTo(a(1), w))
		if y == 0 {
			return 0, false
		}
		return maskTo(int64(x%y), w), true
	case ir.OpAShr:
		sh := uint64(maskTo(a(1), v.Args[1].Width))
		if sh >= uint64(w) {
			if sext(a(0), w) < 0 {
				return maskTo(-1, w), true
			}
			return 0, true
		}
		return maskTo(sext(a(0), w)>>sh, w), true
	case ir.OpShl:
		sh := uint64(maskTo(a(1), v.Args[1].Width))
		if sh >= uint64(w) {
			return 0, true // the C* view; UB folds handle the rest
		}
		return maskTo(a(0)<<sh, w), true
	case ir.OpLShr:
		sh := uint64(maskTo(a(1), v.Args[1].Width))
		if sh >= uint64(w) {
			return 0, true
		}
		return maskTo(maskTo(a(0), w)>>sh, w), true // logical: operate on masked
	case ir.OpICmp:
		x, y := a(0), a(1)
		xw := v.Args[0].Width
		var r bool
		switch v.Pred() {
		case ir.CmpEq:
			r = maskTo(x, xw) == maskTo(y, xw)
		case ir.CmpNe:
			r = maskTo(x, xw) != maskTo(y, xw)
		case ir.CmpULT:
			r = uint64(maskTo(x, xw)) < uint64(maskTo(y, xw))
		case ir.CmpULE:
			r = uint64(maskTo(x, xw)) <= uint64(maskTo(y, xw))
		case ir.CmpSLT:
			r = sext(x, xw) < sext(y, xw)
		case ir.CmpSLE:
			r = sext(x, xw) <= sext(y, xw)
		}
		if r {
			return 1, true
		}
		return 0, true
	case ir.OpZExt:
		return maskTo(a(0), v.Args[0].Width), true
	case ir.OpSExt:
		return maskTo(sext(a(0), v.Args[0].Width), w), true
	case ir.OpTrunc:
		return maskTo(a(0), w), true
	case ir.OpSelect:
		if a(0) != 0 {
			return a(1), true
		}
		return a(2), true
	}
	return 0, false
}

// simplifyCFG folds constant conditional branches, removes newly
// unreachable blocks, and simplifies single-pred phis.
func simplifyCFG(f *ir.Func) bool {
	changed := false
	for _, b := range f.Blocks {
		if b.Term == nil || b.Term.Op != ir.OpCondBr {
			continue
		}
		c, ok := cval(b.Term.Args[0])
		if !ok {
			continue
		}
		taken, dead := b.Succs[0], b.Succs[1]
		if c == 0 {
			taken, dead = dead, taken
		}
		// Rewrite to unconditional branch.
		b.Term.Op = ir.OpBr
		b.Term.Args = nil
		b.Succs = []*ir.Block{taken}
		removePred(dead, b)
		changed = true
	}
	if changed {
		f.RemoveUnreachableBlocks()
	}
	// Single-argument phis become copies.
	for _, b := range f.Blocks {
		for _, v := range b.Instrs {
			if v.Op == ir.OpPhi && len(v.Args) == 1 {
				replaceAllUses(f, v, v.Args[0])
				v.Op = ir.OpUnknown // dead; removed by DCE
				v.Args = nil
				changed = true
			}
		}
	}
	return changed
}

func removePred(b, pred *ir.Block) {
	for i, p := range b.Preds {
		if p == pred {
			b.Preds = append(b.Preds[:i:i], b.Preds[i+1:]...)
			for _, v := range b.Instrs {
				if v.Op == ir.OpPhi && i < len(v.Args) {
					v.Args = append(v.Args[:i:i], v.Args[i+1:]...)
				}
			}
			return
		}
	}
}

func replaceAllUses(f *ir.Func, old, new *ir.Value) {
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

// dce removes unused side-effect-free instructions.
func dce(f *ir.Func) bool {
	used := map[*ir.Value]bool{}
	for _, b := range f.Blocks {
		for v := range b.All() {
			for _, a := range v.Args {
				used[a] = true
			}
		}
	}
	changed := false
	for _, b := range f.Blocks {
		kept := b.Instrs[:0]
		for _, v := range b.Instrs {
			if !used[v] && pure(v) {
				changed = true
				continue
			}
			kept = append(kept, v)
		}
		b.Instrs = kept
	}
	return changed
}

func pure(v *ir.Value) bool {
	switch v.Op {
	case ir.OpStore, ir.OpCall, ir.OpBr, ir.OpCondBr, ir.OpRet, ir.OpUnreachable, ir.OpParam:
		return false
	}
	return true
}
