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

// foldValue computes a constant result if all operands are constant.
// Arithmetic goes through ir.FoldConst, with this optimizer's policy on
// top: signed overflow folds to the wrapped value, and division with
// no value (by zero, MIN / -1), UB at run time, stays in place.
func foldValue(v *ir.Value) (int64, bool) {
	if len(v.Args) == 0 {
		return 0, false
	}
	for _, a := range v.Args {
		if a.Op != ir.OpConst {
			return 0, false
		}
	}
	x := uint64(v.Args[0].Aux)
	switch v.Op {
	case ir.OpSelect:
		if x != 0 {
			return v.Args[1].Aux, true
		}
		return v.Args[2].Aux, true
	case ir.OpShl, ir.OpLShr, ir.OpAShr:
		return foldConstShift(v)
	}
	var y uint64
	if len(v.Args) > 1 {
		y = uint64(v.Args[1].Aux)
	}
	r, ok, _ := ir.FoldConst(v, x, y)
	return int64(r), ok
}

// foldConstShift folds a shift of constants in the C* view: an amount
// of at least the width shifts every bit out, leaving 0, or the sign
// for ashr.
func foldConstShift(v *ir.Value) (int64, bool) {
	w := v.Width
	x, _ := v.Args[0].ConstInt()
	n := ir.Mask(uint64(v.Args[1].Aux), v.Args[1].Width)
	var r int64
	switch {
	case v.Op == ir.OpAShr:
		r = x >> min(n, uint64(w-1))
	case n >= uint64(w):
		return 0, true
	case v.Op == ir.OpShl:
		r = x << n
	default: // OpLShr
		r = int64(ir.Mask(uint64(x), w) >> n)
	}
	return int64(ir.Mask(uint64(r), w)), true
}

// simplifyCFG folds constant conditional branches, removes newly
// unreachable blocks, and simplifies single-pred phis.
func simplifyCFG(f *ir.Func) bool {
	changed := false
	for _, b := range f.Blocks {
		if b.Term == nil || b.Term.Op != ir.OpCondBr {
			continue
		}
		c, ok := b.Term.Args[0].ConstInt()
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
				ir.ReplaceUses(f, v, v.Args[0])
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
