package bv

// Concrete evaluation: the value of a term under an assignment to its
// variables, with SMT-LIB QF_BV semantics. It is written independently
// of the rewrite rules and of the blaster, so it serves as the
// reference both are tested against (rewrite_test.go,
// differential_test.go, fuzz_test.go), and it is what Session uses to
// check a stored satisfying assignment against a new query.
//
// Terms of width up to 64 are evaluated in uint64 arithmetic; math/big
// is used only for wider terms, such as the n+2-bit sums of the
// pointer-overflow condition over 64-bit pointers. Evaluation walks the
// term DAG in post-order with an explicit stack, so its depth is
// bounded by nothing but memory, and memoizes each term's value by
// Term.ID, so a subterm shared by many parents is evaluated once per
// assignment.

import (
	"fmt"
	"math/big"
)

// inputFunc returns the value of variable v, least significant 64-bit
// word first. Bits at or above v's width are ignored, and missing words
// (all of them, for a nil slice) read as zero.
type inputFunc func(v *Term) []uint64

// evaluator evaluates terms of one Builder. Its memo survives across
// calls until reset, which starts a new assignment; the buffers are
// reused across assignments. The zero value is ready to use.
type evaluator struct {
	epoch uint32
	stamp []uint32 // by Term.ID: the epoch in which val holds the term's value
	// val holds the value of a term of width ≤ 64, and the index of its
	// value in wide for a wider term.
	val   []uint64
	wide  []*big.Int // values of wide terms, reused across epochs
	nwide int        // wide entries in use this epoch
	stack []*Term

	arg   [3]big.Int // narrow operands of a wide operation
	res   big.Int    // a narrow result of a wide operation
	sx    big.Int    // signed operands in binaryBig
	sy    big.Int
	masks map[int]*big.Int // 2^w − 1 by width w, for wide widths
}

// reset forgets every memoized value: the next evaluation is under a
// new assignment.
func (e *evaluator) reset() {
	e.epoch++
	if e.epoch == 0 { // wrapped: stale stamps could read as current
		clear(e.stamp)
		e.epoch = 1
	}
	e.nwide = 0
}

func (e *evaluator) done(t *Term) bool {
	return t.id < len(e.stamp) && e.stamp[t.id] == e.epoch
}

// eval computes the value of t, and of every subterm of t not yet
// evaluated under the current assignment, reading variables from in.
func (e *evaluator) eval(t *Term, in inputFunc) {
	if e.epoch == 0 {
		e.reset()
	}
	if e.done(t) {
		return
	}
	if t.id >= len(e.stamp) {
		// A term's operands are created, and numbered, before it, so
		// t.id bounds every ID the walk below meets.
		n := max(t.id+1, 2*len(e.stamp))
		e.stamp = append(e.stamp, make([]uint32, n-len(e.stamp))...)
		e.val = append(e.val, make([]uint64, n-len(e.val))...)
	}
	e.stack = append(e.stack[:0], t)
	for len(e.stack) > 0 {
		n := e.stack[len(e.stack)-1]
		if e.done(n) {
			e.stack = e.stack[:len(e.stack)-1]
			continue
		}
		ready := true
		for _, a := range n.args {
			if !e.done(a) {
				e.stack = append(e.stack, a)
				ready = false
			}
		}
		if ready {
			e.stack = e.stack[:len(e.stack)-1]
			e.compute(n, in)
		}
	}
}

// isTrue reports whether the width-1 term t evaluates to 1.
func (e *evaluator) isTrue(t *Term, in inputFunc) bool {
	e.eval(t, in)
	return e.val[t.id] != 0
}

// value returns a fresh copy of the value of t.
func (e *evaluator) value(t *Term, in inputFunc) *big.Int {
	e.eval(t, in)
	if t.width > 64 {
		return new(big.Int).Set(e.wide[e.val[t.id]])
	}
	return new(big.Int).SetUint64(e.val[t.id])
}

// compute evaluates t, whose operands are all evaluated.
func (e *evaluator) compute(t *Term, in inputFunc) {
	e.stamp[t.id] = e.epoch
	narrow := t.width <= 64
	for _, a := range t.args {
		narrow = narrow && a.width <= 64
	}
	if narrow {
		e.val[t.id] = e.small(t, in)
		return
	}
	z := &e.res
	if t.width > 64 {
		if e.nwide == len(e.wide) {
			e.wide = append(e.wide, new(big.Int))
		}
		z = e.wide[e.nwide]
		e.val[t.id] = uint64(e.nwide)
		e.nwide++
	}
	e.wideOp(z, t, in)
	if t.width <= 64 {
		e.val[t.id] = z.Uint64()
	}
}

// maskU returns 2^w − 1 for 1 ≤ w ≤ 64.
func maskU(w int) uint64 { return ^uint64(0) >> (64 - w) }

// sext sign-extends the w-bit value x to 64 bits.
func sext(x uint64, w int) int64 { return int64(x<<(64-w)) >> (64 - w) }

func b2u(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

// small evaluates a term whose width and operand widths are all ≤ 64.
func (e *evaluator) small(t *Term, in inputFunc) uint64 {
	w := t.width
	m := maskU(w)
	switch t.op {
	case OpConst:
		return t.val.Uint64()
	case OpVar:
		if ws := in(t); len(ws) > 0 {
			return ws[0] & m
		}
		return 0
	}
	x := e.val[t.args[0].id]
	switch t.op {
	case OpNot:
		return ^x & m
	case OpNeg:
		return -x & m
	case OpZExt:
		return x
	case OpSExt:
		return uint64(sext(x, t.args[0].width)) & m
	case OpExtract:
		return x >> t.lo & m
	case OpITE:
		if x != 0 {
			return e.val[t.args[1].id]
		}
		return e.val[t.args[2].id]
	}
	y := e.val[t.args[1].id]
	if t.op == OpConcat {
		return x<<t.args[1].width | y
	}
	return binarySmall(t.op, t.args[0].width, x, y)
}

// binarySmall applies a binary operation to w-bit operands, w ≤ 64,
// normalized to [0, 2^w). Comparison results are 0 or 1.
func binarySmall(op Op, w int, x, y uint64) uint64 {
	m := maskU(w)
	switch op {
	case OpAnd:
		return x & y
	case OpOr:
		return x | y
	case OpXor:
		return x ^ y
	case OpAdd:
		return (x + y) & m
	case OpSub:
		return (x - y) & m
	case OpMul:
		return x * y & m
	case OpUDiv:
		if y == 0 {
			return m
		}
		return x / y
	case OpURem:
		if y == 0 {
			return x
		}
		return x % y
	case OpSDiv:
		xs, ys := sext(x, w), sext(y, w)
		if ys == 0 {
			if xs < 0 {
				return 1
			}
			return m
		}
		// Go defines MinInt64 / -1 as MinInt64, the two's-complement
		// wrap SMT-LIB specifies.
		return uint64(xs/ys) & m
	case OpSRem:
		xs, ys := sext(x, w), sext(y, w)
		if ys == 0 {
			return x
		}
		return uint64(xs%ys) & m
	case OpShl:
		if y >= uint64(w) {
			return 0
		}
		return x << y & m
	case OpLShr:
		if y >= uint64(w) {
			return 0
		}
		return x >> y
	case OpAShr:
		if y >= uint64(w) {
			y = uint64(w) - 1 // every bit becomes the sign bit
		}
		return uint64(sext(x, w)>>y) & m
	case OpEq:
		return b2u(x == y)
	case OpULT:
		return b2u(x < y)
	case OpULE:
		return b2u(x <= y)
	case OpSLT:
		return b2u(sext(x, w) < sext(y, w))
	case OpSLE:
		return b2u(sext(x, w) <= sext(y, w))
	}
	panic(fmt.Sprintf("bv: eval: unexpected op %v", op))
}

// mask returns 2^w − 1, cached per width. Callers must not modify it.
func (e *evaluator) mask(w int) *big.Int {
	if m, ok := e.masks[w]; ok {
		return m
	}
	if e.masks == nil {
		e.masks = map[int]*big.Int{}
	}
	m := mask(w)
	e.masks[w] = m
	return m
}

// operand returns the value of t's i-th operand as a big.Int, which
// the caller must not modify.
func (e *evaluator) operand(t *Term, i int) *big.Int {
	a := t.args[i]
	if a.width > 64 {
		return e.wide[e.val[a.id]]
	}
	return e.arg[i].SetUint64(e.val[a.id])
}

// wideOp evaluates into z a term that is, or has an operand, wider than
// 64 bits. z does not alias any operand.
func (e *evaluator) wideOp(z *big.Int, t *Term, in inputFunc) {
	w := t.width
	switch t.op {
	case OpConst:
		z.Set(t.val)
		return
	case OpVar:
		ws := in(t)
		z.SetUint64(0)
		for i := min(len(ws), (w+63)/64) - 1; i >= 0; i-- {
			z.Lsh(z, 64)
			z.Or(z, e.arg[0].SetUint64(ws[i]))
		}
		z.And(z, e.mask(w))
		return
	}
	x := e.operand(t, 0)
	switch t.op {
	case OpNot:
		z.Xor(x, e.mask(w))
	case OpNeg:
		if x.Sign() == 0 {
			z.SetUint64(0)
		} else {
			z.Sub(e.mask(w), x)
			z.Add(z, bigOne)
		}
	case OpZExt:
		z.Set(x)
	case OpSExt:
		z.Set(x)
		if from := t.args[0].width; x.Bit(from-1) == 1 {
			z.Add(z, e.mask(w))
			z.Sub(z, e.mask(from))
		}
	case OpExtract:
		z.Rsh(x, uint(t.lo))
		z.And(z, e.mask(w))
	case OpITE:
		if x.Sign() != 0 {
			z.Set(e.operand(t, 1))
		} else {
			z.Set(e.operand(t, 2))
		}
	case OpConcat:
		z.Lsh(x, uint(t.args[1].width))
		z.Or(z, e.operand(t, 1))
	default:
		e.binaryBig(z, t.op, t.args[0].width, x, e.operand(t, 1))
	}
}

var bigOne = big.NewInt(1)

// signed sets dst to the two's-complement reading of the w-bit x.
func (e *evaluator) signed(dst, x *big.Int, w int) *big.Int {
	dst.Set(x)
	if x.Bit(w-1) == 1 {
		dst.Sub(dst, e.mask(w))
		dst.Sub(dst, bigOne)
	}
	return dst
}

// wrap reduces a signed result into [0, 2^w).
func (e *evaluator) wrap(z *big.Int, w int) {
	if z.Sign() < 0 {
		z.Add(z, e.mask(w))
		z.Add(z, bigOne)
	}
	z.And(z, e.mask(w))
}

// shiftAmount returns y as a shift amount, capped at w.
func shiftAmount(y *big.Int, w int) uint {
	if y.IsUint64() && y.Uint64() < uint64(w) {
		return uint(y.Uint64())
	}
	return uint(w)
}

// binaryBig applies a binary operation to w-bit operands normalized to
// [0, 2^w), setting z, which aliases neither operand. Comparison
// results are 0 or 1. It handles any width; the evaluator uses it only
// above 64 bits.
func (e *evaluator) binaryBig(z *big.Int, op Op, w int, x, y *big.Int) *big.Int {
	switch op {
	case OpAnd:
		z.And(x, y)
	case OpOr:
		z.Or(x, y)
	case OpXor:
		z.Xor(x, y)
	case OpAdd:
		z.Add(x, y)
		z.And(z, e.mask(w))
	case OpSub:
		z.Sub(x, y)
		e.wrap(z, w)
	case OpMul:
		z.Mul(x, y)
		z.And(z, e.mask(w))
	case OpUDiv:
		if y.Sign() == 0 {
			z.Set(e.mask(w))
		} else {
			z.Quo(x, y)
		}
	case OpURem:
		if y.Sign() == 0 {
			z.Set(x)
		} else {
			z.Rem(x, y)
		}
	case OpSDiv:
		xs, ys := e.signed(&e.sx, x, w), e.signed(&e.sy, y, w)
		switch {
		case ys.Sign() != 0:
			z.Quo(xs, ys)
			e.wrap(z, w)
		case xs.Sign() < 0:
			z.SetUint64(1)
		default:
			z.Set(e.mask(w))
		}
	case OpSRem:
		xs, ys := e.signed(&e.sx, x, w), e.signed(&e.sy, y, w)
		if ys.Sign() == 0 {
			z.Set(x)
		} else {
			z.Rem(xs, ys)
			e.wrap(z, w)
		}
	case OpShl:
		if sh := shiftAmount(y, w); sh < uint(w) {
			z.Lsh(x, sh)
			z.And(z, e.mask(w))
		} else {
			z.SetUint64(0)
		}
	case OpLShr:
		if sh := shiftAmount(y, w); sh < uint(w) {
			z.Rsh(x, sh)
		} else {
			z.SetUint64(0)
		}
	case OpAShr:
		// big.Int.Rsh of a negative value rounds toward −∞, which is an
		// arithmetic shift; shifting by w or more leaves only the sign.
		z.Rsh(e.signed(&e.sx, x, w), min(shiftAmount(y, w), uint(w)-1))
		e.wrap(z, w)
	case OpEq:
		z.SetUint64(b2u(x.Cmp(y) == 0))
	case OpULT:
		z.SetUint64(b2u(x.Cmp(y) < 0))
	case OpULE:
		z.SetUint64(b2u(x.Cmp(y) <= 0))
	case OpSLT:
		z.SetUint64(b2u(e.signed(&e.sx, x, w).Cmp(e.signed(&e.sy, y, w)) < 0))
	case OpSLE:
		z.SetUint64(b2u(e.signed(&e.sx, x, w).Cmp(e.signed(&e.sy, y, w)) <= 0))
	default:
		panic(fmt.Sprintf("bv: eval: unexpected op %v", op))
	}
	return z
}
