package opt

import (
	"repro/internal/ir"
)

// foldUBChecks applies the enabled UB-exploiting folds. Each fold is a
// real IR transformation reproducing a behavior documented in the
// paper's §2 compiler survey.
func foldUBChecks(f *ir.Func, cfg Config, res *Result) bool {
	dom := ir.ComputeDom(f)
	facts := collectRangeFacts(f, dom)
	changed := false
	for _, b := range f.Blocks {
		for _, v := range b.Instrs {
			if v.Op != ir.OpICmp {
				continue
			}
			folded, which := tryFold(f, dom, facts, b, v, cfg)
			if folded {
				res.FoldedChecks++
				res.UsedOpts[which] = true
				changed = true
			}
		}
	}
	return changed
}

// rangeFact records a known sign fact about a value within a block,
// derived from a dominating branch — a miniature of gcc 4.x's value
// range propagation (paper §2.3).
type rangeFact struct {
	positive map[*ir.Value]bool // value >s 0
	negative map[*ir.Value]bool // value <s 0
}

func collectRangeFacts(f *ir.Func, dom *ir.DomTree) map[*ir.Block]rangeFact {
	out := make(map[*ir.Block]rangeFact, len(f.Blocks))
	for _, b := range f.Blocks {
		fact := rangeFact{positive: map[*ir.Value]bool{}, negative: map[*ir.Value]bool{}}
		// Walk dominators; for each dominating CondBr whose taken edge
		// leads (dominating-ly) to b, record sign facts.
		for _, d := range dom.Dominators(b) {
			if d == b || d.Term == nil || d.Term.Op != ir.OpCondBr {
				continue
			}
			cond := d.Term.Args[0]
			if cond.Op != ir.OpICmp {
				continue
			}
			trueEdge := d.Succs[0]
			falseEdge := d.Succs[1]
			// Determine which arm dominates b (i.e. every path to b
			// goes through it).
			var holds bool
			var negated bool
			switch {
			case trueEdge != falseEdge && dom.Dominates(trueEdge, b):
				holds, negated = true, false
			case trueEdge != falseEdge && dom.Dominates(falseEdge, b):
				holds, negated = true, true
			}
			if !holds {
				continue
			}
			recordSignFact(&fact, cond, negated)
		}
		out[b] = fact
	}
	return out
}

// recordSignFact interprets comparisons against constants.
func recordSignFact(fact *rangeFact, cmp *ir.Value, negated bool) {
	x, y := cmp.Args[0], cmp.Args[1]
	cy, okY := y.ConstInt()
	cx, okX := x.ConstInt()
	pred := cmp.Pred()
	if negated {
		// The false edge: invert the predicate.
		switch pred {
		case ir.CmpSLT:
			pred = ir.CmpSLE
			x, y = y, x
			cx, cy = cy, cx
			okX, okY = okY, okX
		case ir.CmpSLE:
			pred = ir.CmpSLT
			x, y = y, x
			cx, cy = cy, cx
			okX, okY = okY, okX
		case ir.CmpEq:
			pred = ir.CmpNe
		case ir.CmpNe:
			pred = ir.CmpEq
		default:
			return
		}
	}
	switch pred {
	case ir.CmpSLT:
		if okY && cy <= 0 { // x < c ≤ 0 → x negative
			fact.negative[x] = true
		}
		if okX && cx >= 0 { // 0 ≤ c < y → y positive
			fact.positive[y] = true
		}
	case ir.CmpSLE:
		if okY && cy < 0 {
			fact.negative[x] = true
		}
		if okX && cx > 0 {
			fact.positive[y] = true
		}
	}
}

// tryFold attempts each enabled UB-based fold on comparison v in
// block b. On success the comparison is replaced by a constant.
func tryFold(f *ir.Func, dom *ir.DomTree, facts map[*ir.Block]rangeFact, b *ir.Block, v *ir.Value, cfg Config) (bool, UBOpt) {
	set := func(val int64) {
		v.Op = ir.OpConst
		v.Aux = val
		v.Args = nil
	}
	x, y := v.Args[0], v.Args[1]

	// OptPtrOverflow: (p + off) <u p with off that cannot be negative
	// (zero-extended or constant ≥ 0) folds to false; p <u (p+off)
	// variants fold symmetrically; >=u folds to true.
	if cfg.Enabled[OptPtrOverflow] {
		if ok, result := foldPtrOverflow(v, x, y); ok {
			set(result)
			return true, OptPtrOverflow
		}
	}
	// OptNullCheck: p == NULL folds to false when a dereference of p
	// dominates the comparison.
	if cfg.Enabled[OptNullCheck] {
		if ok, result := foldNullCheck(f, dom, b, v, x, y); ok {
			set(result)
			return true, OptNullCheck
		}
	}
	// OptSignedOverflow: (x +nsw c) <s x with c > 0 → false;
	// likewise (x +nsw c) >s x → true.
	if cfg.Enabled[OptSignedOverflow] {
		if ok, result := foldSignedOverflow(v, x, y); ok {
			set(result)
			return true, OptSignedOverflow
		}
	}
	// OptValueRange: x known positive ∧ c ≥ 0 → (x +nsw c) <s 0 is
	// false; x known negative → -x >s 0 ... (Fig. 4 col 4, Fig. 13).
	if cfg.Enabled[OptValueRange] {
		if ok, result := foldValueRange(facts[b], v, x, y); ok {
			set(result)
			return true, OptValueRange
		}
	}
	// OptShift: (1 << x) == 0 → false (assuming x in range).
	if cfg.Enabled[OptShift] {
		if ok, result := foldShift(v, x, y); ok {
			set(result)
			return true, OptShift
		}
	}
	// OptAbs: abs(x) <s 0 → false.
	if cfg.Enabled[OptAbs] {
		if ok, result := foldAbs(v, x, y); ok {
			set(result)
			return true, OptAbs
		}
	}
	return false, 0
}

// nonNegativeOffset reports whether an offset value is provably ≥ 0
// under the no-overflow assumption: zero-extended, a non-negative
// constant, or a multiple of one of those.
func nonNegativeOffset(v *ir.Value) bool {
	switch v.Op {
	case ir.OpZExt:
		return true
	case ir.OpConst:
		c, _ := v.ConstInt()
		return c >= 0
	case ir.OpMul:
		return nonNegativeOffset(v.Args[0]) && nonNegativeOffset(v.Args[1])
	}
	return false
}

func foldPtrOverflow(v, x, y *ir.Value) (bool, int64) {
	// (y + off) pred y — assuming no pointer overflow, y + off ≥u y
	// when off ≥ 0.
	match := func(sum, base *ir.Value) *ir.Value {
		if sum.Op != ir.OpPtrAdd {
			return nil
		}
		if sum.Args[0] == base && nonNegativeOffset(sum.Args[1]) {
			return sum.Args[1]
		}
		return nil
	}
	switch v.Pred() {
	case ir.CmpULT: // sum <u base → false
		if match(x, y) != nil {
			return true, 0
		}
	case ir.CmpULE: // base ≤u sum → true (swapped form: sum on right)
		if match(y, x) != nil {
			return true, 1
		}
	case ir.CmpEq, ir.CmpNe:
		// p + c == NULL with c != 0: assuming no overflow, p + c == 0
		// requires p = -c, which wraps; compilers fold the strchr+1
		// null check this way (paper Fig. 11).
		sum := x
		other := y
		if sum.Op != ir.OpPtrAdd {
			sum, other = y, x
		}
		if sum.Op == ir.OpPtrAdd {
			if c, ok := other.ConstInt(); ok && c == 0 {
				if off, ok2 := sum.Args[1].ConstInt(); ok2 && off != 0 {
					if v.Pred() == ir.CmpEq {
						return true, 0
					}
					return true, 1
				}
			}
		}
	}
	return false, 0
}

func foldNullCheck(f *ir.Func, dom *ir.DomTree, b *ir.Block, v, x, y *ir.Value) (bool, int64) {
	if v.Pred() != ir.CmpEq && v.Pred() != ir.CmpNe {
		return false, 0
	}
	ptr := x
	other := y
	if c, ok := ptr.ConstInt(); ok && c == 0 {
		ptr, other = y, x
	}
	if c, ok := other.ConstInt(); !ok || c != 0 {
		return false, 0
	}
	// Find a dereference of ptr that dominates the comparison.
	for _, d := range dom.Dominators(b) {
		for _, w := range d.Instrs {
			if w.Op != ir.OpLoad && w.Op != ir.OpStore {
				continue
			}
			if ir.RootPointer(w.Args[0]) != ptr {
				continue
			}
			if d == b && !precedes(d, w, v) {
				continue
			}
			// ptr was dereferenced: assume non-null.
			if v.Pred() == ir.CmpEq {
				return true, 0
			}
			return true, 1
		}
	}
	return false, 0
}

func precedes(b *ir.Block, a, c *ir.Value) bool {
	for _, v := range b.Instrs {
		if v == a {
			return true
		}
		if v == c {
			return false
		}
	}
	return false
}

func foldSignedOverflow(v, x, y *ir.Value) (bool, int64) {
	// (y +nsw c) pred y with constant c.
	match := func(sum, base *ir.Value) (int64, bool) {
		if sum.Op != ir.OpAdd || !sum.Signed {
			return 0, false
		}
		if sum.Args[0] == base {
			if c, ok := sum.Args[1].ConstInt(); ok {
				return c, true
			}
		}
		if sum.Args[1] == base {
			if c, ok := sum.Args[0].ConstInt(); ok {
				return c, true
			}
		}
		return 0, false
	}
	switch v.Pred() {
	case ir.CmpSLT:
		if c, ok := match(x, y); ok && c >= 0 { // x+c <s x, c ≥ 0 → false
			return true, 0
		}
		if c, ok := match(y, x); ok && c >= 0 { // x <s x+c: c>0 → true
			if c > 0 {
				return true, 1
			}
		}
	case ir.CmpSLE:
		if c, ok := match(y, x); ok && c >= 0 { // x ≤s x+c → true
			return true, 1
		}
		if c, ok := match(x, y); ok && c > 0 { // x+c ≤s x → false
			return true, 0
		}
	}
	return false, 0
}

func foldValueRange(fact rangeFact, v, x, y *ir.Value) (bool, int64) {
	known := func(val *ir.Value) (pos, neg bool) {
		if fact.positive[val] {
			return true, false
		}
		if fact.negative[val] {
			return false, true
		}
		// x +nsw c with x positive and c ≥ 0 stays positive.
		if val.Op == ir.OpAdd && val.Signed {
			if c, ok := val.Args[1].ConstInt(); ok && fact.positive[val.Args[0]] && c >= 0 {
				return true, false
			}
			if c, ok := val.Args[0].ConstInt(); ok && fact.positive[val.Args[1]] && c >= 0 {
				return true, false
			}
		}
		// -x with x negative is positive (no overflow assumed), and
		// vice versa (paper Fig. 13).
		if val.Op == ir.OpNeg && val.Signed {
			if fact.negative[val.Args[0]] {
				return true, false
			}
			if fact.positive[val.Args[0]] {
				return false, true
			}
		}
		return false, false
	}
	if yv, ok := y.ConstInt(); ok {
		pos, neg := known(x)
		switch v.Pred() {
		case ir.CmpSLT:
			if pos && yv <= 0 { // positive < nonpositive → false
				return true, 0
			}
			if neg && yv >= 0 { // negative < nonnegative → true
				return true, 1
			}
		case ir.CmpSLE:
			if pos && yv < 0 {
				return true, 0
			}
			if neg && yv >= 0 {
				return true, 1
			}
		}
	}
	if xv, ok := x.ConstInt(); ok {
		pos, neg := known(y)
		switch v.Pred() {
		case ir.CmpSLE:
			if xv >= 0 && pos { // 0 ≤ positive → true
				return true, 1
			}
			if xv > 0 && neg {
				return true, 0
			}
		case ir.CmpSLT:
			if xv < 0 && pos {
				return true, 1
			}
			if xv >= 0 && neg { // nonneg < negative → false
				return true, 0
			}
		}
	}
	return false, 0
}

func foldShift(v, x, y *ir.Value) (bool, int64) {
	if v.Pred() != ir.CmpEq && v.Pred() != ir.CmpNe {
		return false, 0
	}
	sh := x
	other := y
	if sh.Op != ir.OpShl {
		sh, other = y, x
	}
	if sh.Op != ir.OpShl {
		return false, 0
	}
	c, ok := sh.Args[0].ConstInt()
	if !ok || c == 0 {
		return false, 0
	}
	if z, ok := other.ConstInt(); !ok || z != 0 {
		return false, 0
	}
	// nonzero << x is never 0 for in-range x (no truncation of the
	// set bit when the shifted-in-range value keeps a bit: true for
	// c = 1 and any x < width).
	if c != 1 {
		return false, 0
	}
	if v.Pred() == ir.CmpEq {
		return true, 0
	}
	return true, 1
}

func foldAbs(v, x, y *ir.Value) (bool, int64) {
	isAbs := func(val *ir.Value) bool {
		return val.Op == ir.OpCall && (val.AuxName == "abs" || val.AuxName == "labs")
	}
	if isAbs(x) {
		if c, ok := y.ConstInt(); ok && c <= 0 {
			switch v.Pred() {
			case ir.CmpSLT: // abs(x) < c ≤ 0 → false
				return true, 0
			case ir.CmpSLE:
				if c < 0 {
					return true, 0
				}
			}
		}
	}
	if isAbs(y) {
		if c, ok := x.ConstInt(); ok && c <= 0 {
			switch v.Pred() {
			case ir.CmpSLE: // c ≤ abs(x) → true for c ≤ 0
				return true, 1
			case ir.CmpSLT:
				if c < 0 {
					return true, 1
				}
			}
		}
	}
	return false, 0
}
