package bv

// Word-level term rewriting (Boolector-style "rewrite level 1/2"): every
// constructor normalizes its operands before a node is interned, so
// constant and trivially-decidable subterms collapse at construction
// time and never reach the bit-blaster. For the STACK workload this is
// the difference between answering a query with a table lookup and
// running a full CDCL search: reachability and well-definedness terms
// for straight-line code frequently fold to constants here, and
// a Session query short-circuits on them without touching the SAT core.
//
// Every rule in this file must be sound under SMT-LIB QF_BV semantics
// for all operand values — rewrite_test.go checks each rule against a
// concrete reference evaluator on random inputs. Rules that fire are
// counted in Builder.RewriteHits (alongside the structural CacheHits of
// hash consing).

import "math/big"

// hit records a successful rewrite and returns its result, so rules can
// be written as one-liners.
func (b *Builder) hit(t *Term) *Term {
	b.RewriteHits++
	return t
}

func toSigned(v *big.Int, width int) *big.Int {
	r := new(big.Int).Set(v)
	if r.Bit(width-1) == 1 {
		r.Sub(r, new(big.Int).Lsh(big.NewInt(1), uint(width)))
	}
	return r
}

// isAllOnes reports whether a constant term is ~0 at its width.
func isAllOnes(t *Term) bool {
	return t.op == OpConst && t.val.Cmp(mask(t.width)) == 0
}

// complementary reports whether x = ¬y or y = ¬x structurally.
func complementary(x, y *Term) bool {
	return (x.op == OpNot && x.args[0] == y) || (y.op == OpNot && y.args[0] == x)
}

// addChainSplit decomposes t over the add-chain normal form the OpAdd
// and OpSub rules maintain: t = base + off with off a constant (zero
// when t is not an add-with-constant node). Two terms with the same
// base differ by a constant for every operand value.
func addChainSplit(t *Term) (base *Term, off *big.Int) {
	if t.op == OpAdd && t.args[1].op == OpConst {
		return t.args[0], t.args[1].val
	}
	return t, bigZero
}

var bigZero = new(big.Int)

// smax / smin are the extreme signed constants at width w.
func smax(w int) *big.Int {
	m := big.NewInt(1)
	m.Lsh(m, uint(w-1))
	return m.Sub(m, big.NewInt(1))
}

func smin(w int) *big.Int {
	m := big.NewInt(1)
	return m.Lsh(m, uint(w-1))
}

// rewriteNot simplifies ¬x; nil means no rule applies.
func (b *Builder) rewriteNot(x *Term) *Term {
	if x.op == OpConst {
		return b.hit(b.Const(new(big.Int).Xor(x.val, mask(x.width)), x.width))
	}
	if x.op == OpNot {
		return b.hit(x.args[0]) // ¬¬x = x
	}
	return nil
}

// rewriteNeg simplifies -x.
func (b *Builder) rewriteNeg(x *Term) *Term {
	if x.op == OpConst {
		return b.hit(b.Const(new(big.Int).Neg(x.val), x.width))
	}
	if x.op == OpNeg {
		return b.hit(x.args[0]) // -(-x) = x
	}
	if x.op == OpAdd && x.args[1].op == OpNeg {
		// -(a + (-b)) = b + (-a): keeps negated subtraction chains in
		// the add-normal form the OpSub rule produces, instead of
		// wrapping them in a fresh OpNeg node.
		return b.hit(b.Add(x.args[1].args[0], b.Neg(x.args[0])))
	}
	return nil
}

// rewriteITE simplifies ite(c, x, y).
func (b *Builder) rewriteITE(cond, x, y *Term) *Term {
	if cond.op == OpConst {
		if cond.val.Sign() != 0 {
			return b.hit(x)
		}
		return b.hit(y)
	}
	if x == y {
		return b.hit(x)
	}
	if x.width == 1 && x.op == OpConst && y.op == OpConst {
		// Boolean selection: ite(c, 1, 0) = c and ite(c, 0, 1) = ¬c.
		if x.val.Sign() != 0 {
			return b.hit(cond)
		}
		return b.hit(b.Not(cond))
	}
	if cond.op == OpNot {
		return b.hit(b.ITE(cond.args[0], y, x)) // ite(¬c, x, y) = ite(c, y, x)
	}
	return nil
}

// rewriteZExt / rewriteSExt fold constant extensions. Width-preserving
// extensions are handled by the constructors.
func (b *Builder) rewriteZExt(x *Term, w int) *Term {
	if x.op == OpConst {
		return b.hit(b.Const(x.val, w))
	}
	return nil
}

func (b *Builder) rewriteSExt(x *Term, w int) *Term {
	if x.op == OpConst {
		return b.hit(b.Const(toSigned(x.val, x.width), w))
	}
	return nil
}

// rewriteExtract folds extraction from constants and nested extracts.
func (b *Builder) rewriteExtract(x *Term, hi, lo int) *Term {
	if x.op == OpConst {
		return b.hit(b.Const(new(big.Int).Rsh(x.val, uint(lo)), hi-lo+1))
	}
	if x.op == OpExtract {
		// (extract hi lo (extract _ lo')) = extract (hi+lo') (lo+lo')
		return b.hit(b.Extract(x.args[0], hi+x.lo, lo+x.lo))
	}
	if x.op == OpConcat {
		// Distribute extract over concat when the range lies entirely in
		// one half, so the other half's circuit is never blasted. Ranges
		// spanning the seam are left alone.
		hiT, loT := x.args[0], x.args[1]
		if hi < loT.width {
			return b.hit(b.Extract(loT, hi, lo))
		}
		if lo >= loT.width {
			return b.hit(b.Extract(hiT, hi-loT.width, lo-loT.width))
		}
	}
	return nil
}

// absorbOr applies the absorption laws for a | other with other an
// And: a | (a & y) = a, and with a complemented factor,
// a | (¬a & y) = a | y. The second shape is how the checker's
// block-reachability joins look once one arm's guard negates the
// other's — the guard's whole cone on that side never blasts. Each
// rule strictly shrinks the tree, so the recursive rebuild terminates.
func (b *Builder) absorbOr(a, other *Term) *Term {
	if other.op != OpAnd {
		return nil
	}
	l, r := other.args[0], other.args[1]
	if l == a || r == a {
		return b.hit(a) // a | (a & y) = a
	}
	if complementary(l, a) {
		return b.hit(b.Or(a, r)) // a | (¬a & y) = a | y
	}
	if complementary(r, a) {
		return b.hit(b.Or(a, l))
	}
	return nil
}

// absorbAnd is the dual of absorbOr: a & (a | y) = a and
// a & (¬a | y) = a & y.
func (b *Builder) absorbAnd(a, other *Term) *Term {
	if other.op != OpOr {
		return nil
	}
	l, r := other.args[0], other.args[1]
	if l == a || r == a {
		return b.hit(a) // a & (a | y) = a
	}
	if complementary(l, a) {
		return b.hit(b.And(a, r)) // a & (¬a | y) = a & y
	}
	if complementary(r, a) {
		return b.hit(b.And(a, l))
	}
	return nil
}

// factorOr applies complementary factoring to x | y: when x = a & c
// and y = a & ¬c under any pairing of the And factors, x | y = a —
// bitwise, (a&c)|(a&¬c) = a&(c|¬c) = a&~0 = a at every width. This is
// the shape of a join block's reachability whose two in-edges carry a
// guard and its negation: the whole Or/And cone collapses to the
// common prefix and never blasts. Returns nil when the law does not
// apply; the caller records the hit.
func factorOr(x, y *Term) *Term {
	if x.op != OpAnd || y.op != OpAnd {
		return nil
	}
	for _, xp := range [2][2]*Term{{x.args[0], x.args[1]}, {x.args[1], x.args[0]}} {
		for _, yp := range [2][2]*Term{{y.args[0], y.args[1]}, {y.args[1], y.args[0]}} {
			if xp[0] == yp[0] && complementary(xp[1], yp[1]) {
				return xp[0] // (a & c) | (a & ¬c) = a
			}
		}
	}
	return nil
}

// factorAnd is the dual: (a | c) & (a | ¬c) = a.
func factorAnd(x, y *Term) *Term {
	if x.op != OpOr || y.op != OpOr {
		return nil
	}
	for _, xp := range [2][2]*Term{{x.args[0], x.args[1]}, {x.args[1], x.args[0]}} {
		for _, yp := range [2][2]*Term{{y.args[0], y.args[1]}, {y.args[1], y.args[0]}} {
			if xp[0] == yp[0] && complementary(xp[1], yp[1]) {
				return xp[0]
			}
		}
	}
	return nil
}

// rewriteConcat folds constant concatenation.
func (b *Builder) rewriteConcat(hi, lo *Term) *Term {
	if hi.op == OpConst && lo.op == OpConst {
		v := new(big.Int).Lsh(hi.val, uint(lo.width))
		v.Or(v, lo.val)
		return b.hit(b.Const(v, hi.width+lo.width))
	}
	return nil
}

// rewriteBinary simplifies a binary operation; nil means no rule
// applies and the caller interns a fresh node. The caller (binary) has
// already canonicalized commutative operations so that a lone constant
// operand sits on the right.
func (b *Builder) rewriteBinary(op Op, x, y *Term) *Term {
	cx, cy := x.op == OpConst, y.op == OpConst
	if cx && cy {
		return b.hit(b.evalConstBinary(op, x, y))
	}
	switch op {
	case OpAnd:
		if cy {
			if y.val.Sign() == 0 {
				return b.hit(y) // x & 0 = 0
			}
			if isAllOnes(y) {
				return b.hit(x) // x & ~0 = x
			}
		}
		if x == y {
			return b.hit(x) // x & x = x
		}
		if complementary(x, y) {
			return b.hit(b.Const(big.NewInt(0), x.width)) // x & ¬x = 0
		}
		if t := b.absorbAnd(x, y); t != nil {
			return t
		}
		if t := b.absorbAnd(y, x); t != nil {
			return t
		}
		if t := factorAnd(x, y); t != nil {
			return b.hit(t)
		}
		// One level of re-association: (p & q) & r factors r against
		// either conjunct, so chains built left-to-right still collapse.
		if x.op == OpAnd {
			if t := factorAnd(x.args[1], y); t != nil {
				return b.hit(b.And(x.args[0], t))
			}
			if t := factorAnd(x.args[0], y); t != nil {
				return b.hit(b.And(t, x.args[1]))
			}
		}
	case OpOr:
		if cy {
			if y.val.Sign() == 0 {
				return b.hit(x) // x | 0 = x
			}
			if isAllOnes(y) {
				return b.hit(y) // x | ~0 = ~0
			}
		}
		if x == y {
			return b.hit(x) // x | x = x
		}
		if complementary(x, y) {
			return b.hit(b.Const(mask(x.width), x.width)) // x | ¬x = ~0
		}
		if t := b.absorbOr(x, y); t != nil {
			return t
		}
		if t := b.absorbOr(y, x); t != nil {
			return t
		}
		if t := factorOr(x, y); t != nil {
			return b.hit(t)
		}
		// One level of re-association: (p | q) | r factors r against
		// either disjunct — the shape of a join block's reachability
		// folded over three or more predecessors.
		if x.op == OpOr {
			if t := factorOr(x.args[1], y); t != nil {
				return b.hit(b.Or(x.args[0], t))
			}
			if t := factorOr(x.args[0], y); t != nil {
				return b.hit(b.Or(t, x.args[1]))
			}
		}
	case OpXor:
		if x == y {
			return b.hit(b.Const(big.NewInt(0), x.width)) // x ^ x = 0
		}
		if cy {
			if y.val.Sign() == 0 {
				return b.hit(x) // x ^ 0 = x
			}
			if isAllOnes(y) {
				return b.hit(b.Not(x)) // x ^ ~0 = ¬x
			}
		}
		if complementary(x, y) {
			return b.hit(b.Const(mask(x.width), x.width)) // x ^ ¬x = ~0
		}
	case OpAdd:
		if cy && y.val.Sign() == 0 {
			return b.hit(x) // x + 0 = x
		}
		if cy && x.op == OpAdd && x.args[1].op == OpConst {
			// (a + c1) + c2 = a + (c1+c2): chain folding keeps long
			// pointer-arithmetic sums one node deep. Subtraction chains
			// funnel through here too, because the OpSub rule below
			// normalizes every x - c to x + (-c) before interning.
			c := new(big.Int).Add(x.args[1].val, y.val)
			return b.hit(b.Add(x.args[0], b.Const(c, x.width)))
		}
		if y.op == OpNeg {
			// (a + c1) + (-(a + c2)) = c1 - c2: a directly-built negated
			// add whose chain base matches the left operand — the shape
			// OpSub's normalization produces folds there, but the same
			// difference spelled with explicit Add/Neg lands here.
			bx, ox := addChainSplit(x)
			by, oy := addChainSplit(y.args[0])
			if bx == by {
				return b.hit(b.Const(new(big.Int).Sub(ox, oy), x.width))
			}
		}
		if x.op == OpNeg {
			// The mirror image: (-(a + c1)) + (a + c2) = c2 - c1.
			bx, ox := addChainSplit(x.args[0])
			by, oy := addChainSplit(y)
			if bx == by {
				return b.hit(b.Const(new(big.Int).Sub(oy, ox), x.width))
			}
		}
	case OpSub:
		if cy && y.val.Sign() == 0 {
			return b.hit(x) // x - 0 = x
		}
		if x == y {
			return b.hit(b.Const(big.NewInt(0), x.width)) // x - x = 0
		}
		if cx && x.val.Sign() == 0 {
			return b.hit(b.Neg(y)) // 0 - y = -y
		}
		if cy {
			// x - c = x + (-c): funnels constant subtraction into the
			// OpAdd chain-folding rules above.
			return b.hit(b.Add(x, b.Const(new(big.Int).Neg(y.val), x.width)))
		}
		// (a + c1) - (a + c2) = c1 - c2: both sides decompose over a
		// shared add-chain base, so the difference is a constant for
		// every value of a — the payoff of keeping sums in add-normal
		// form. Covers (a + c1) - a and a - (a + c2) too (offset 0).
		bx, ox := addChainSplit(x)
		by, oy := addChainSplit(y)
		if bx == by {
			return b.hit(b.Const(new(big.Int).Sub(ox, oy), x.width))
		}
		// x - y = x + (-y), both operands non-const: every subtraction
		// interns in add-normal form, so x - y and x + (-y) share one
		// node, mixed add/sub chains funnel through the OpAdd folding
		// rules, and the blaster sees one adder shape instead of two.
		return b.hit(b.Add(x, b.Neg(y)))
	case OpMul:
		if cy {
			if y.val.Sign() == 0 {
				return b.hit(y) // x * 0 = 0
			}
			if y.val.Cmp(big.NewInt(1)) == 0 {
				return b.hit(x) // x * 1 = x
			}
		}
	case OpUDiv:
		if cy && y.val.Cmp(big.NewInt(1)) == 0 {
			return b.hit(x) // x /u 1 = x
		}
	case OpURem:
		if cy && y.val.Cmp(big.NewInt(1)) == 0 {
			return b.hit(b.Const(big.NewInt(0), x.width)) // x %u 1 = 0
		}
	case OpShl, OpLShr:
		if cy {
			if y.val.Sign() == 0 {
				return b.hit(x) // x << 0 = x
			}
			if y.val.Cmp(big.NewInt(int64(x.width))) >= 0 {
				return b.hit(b.Const(big.NewInt(0), x.width)) // oversized shift = 0
			}
			if x.op == op && x.args[1].op == OpConst {
				// Shift-of-shift folding: (x ⋘ c1) ⋘ c2 = x ⋘ (c1+c2) for
				// same-direction shl/lshr. Both constants are < width here
				// (the oversized rule above fires first), so the sum cannot
				// wrap at the amount's width; an oversized sum folds to 0
				// through the recursive construction.
				sum := new(big.Int).Add(x.args[1].val, y.val)
				return b.hit(b.binary(op, x.args[0], b.Const(sum, x.width)))
			}
		}
	case OpAShr:
		if cy && y.val.Sign() == 0 {
			return b.hit(x)
		}
		if cy && x.op == OpAShr && x.args[1].op == OpConst {
			// (x >>a c1) >>a c2 = x >>a min(c1+c2, w): once the total
			// reaches the width the result is pure sign fill, which a
			// shift by exactly w also produces, so clamping keeps the
			// amount representable even when c1 or c2 is oversized.
			sum := new(big.Int).Add(x.args[1].val, y.val)
			if wBig := big.NewInt(int64(x.width)); sum.Cmp(wBig) >= 0 {
				sum = wBig
			}
			return b.hit(b.AShr(x.args[0], b.Const(sum, x.width)))
		}
	case OpEq:
		if x == y {
			return b.hit(b.Bool(true))
		}
		if x.width == 1 {
			if cy {
				if y.val.Sign() != 0 {
					return b.hit(x) // (x = true) = x
				}
				return b.hit(b.Not(x)) // (x = false) = ¬x
			}
		}
		if complementary(x, y) {
			return b.hit(b.Bool(false)) // x = ¬x is never true
		}
	case OpULE:
		if x == y {
			return b.hit(b.Bool(true))
		}
		if cx && x.val.Sign() == 0 {
			return b.hit(b.Bool(true)) // 0 <=u y
		}
		if cy && isAllOnes(y) {
			return b.hit(b.Bool(true)) // x <=u ~0
		}
		if cy && y.val.Sign() == 0 {
			return b.hit(b.Eq(x, y)) // x <=u 0 ⇔ x = 0
		}
	case OpULT:
		if x == y {
			return b.hit(b.Bool(false))
		}
		if cy && y.val.Sign() == 0 {
			return b.hit(b.Bool(false)) // x <u 0
		}
		if cx && isAllOnes(x) {
			return b.hit(b.Bool(false)) // ~0 <u y
		}
	case OpSLE:
		if x == y {
			return b.hit(b.Bool(true))
		}
		if cx && x.val.Cmp(smin(x.width)) == 0 {
			return b.hit(b.Bool(true)) // INT_MIN <=s y
		}
		if cy && y.val.Cmp(smax(y.width)) == 0 {
			return b.hit(b.Bool(true)) // x <=s INT_MAX
		}
	case OpSLT:
		if x == y {
			return b.hit(b.Bool(false))
		}
		if cy && y.val.Cmp(smin(y.width)) == 0 {
			return b.hit(b.Bool(false)) // x <s INT_MIN
		}
		if cx && x.val.Cmp(smax(x.width)) == 0 {
			return b.hit(b.Bool(false)) // INT_MAX <s y
		}
	}
	return nil
}

// evalConstBinary folds a binary operation over two constants with the
// evaluator's arithmetic, without math/big up to 64 bits.
func (b *Builder) evalConstBinary(op Op, x, y *Term) *Term {
	w := x.width
	if w <= 64 {
		r := binarySmall(op, w, x.val.Uint64(), y.val.Uint64())
		return b.internConst(constKey{width: binaryWidth(op, w), lo: r}, nil)
	}
	return b.Const(b.foldConst(op, w, x.val, y.val), binaryWidth(op, w))
}

// foldConst applies op to the w-bit constant values x and y with the
// evaluator's arithmetic, binarySmall up to 64 bits and binaryBig
// above, returning the result in a new big.Int.
func (b *Builder) foldConst(op Op, w int, x, y *big.Int) *big.Int {
	if w <= 64 {
		return new(big.Int).SetUint64(binarySmall(op, w, x.Uint64(), y.Uint64()))
	}
	if b.wide == nil {
		b.wide = new(evaluator)
	}
	return b.wide.binaryBig(new(big.Int), op, w, x, y)
}
