package ir

// Constant folding: the one implementation of C* integer arithmetic
// over constant operands that the optimizing passes share. SCCP
// (sccp.go) folds through it before the checker runs, and the Fig. 4
// compiler model (internal/opt) folds through it for the §2 survey.
// The concrete evaluator (exec.go) is written independently of it and
// is the reference it is checked against (FuzzFoldMatchesExec).

// FoldConst computes v's operation over the constant operand values x
// and y (y is ignored by unary operations), each masked here to the
// operand width. It handles add, sub, mul, neg, and, or, xor, not,
// zext, sext, trunc, icmp, udiv, sdiv, urem and srem; any other
// operation has no value. r is the wrapped C* result masked to
// v.Width (0 or 1 for icmp). ok is false when no value exists: an
// operation it does not handle, division by zero, or MIN / -1. ub
// reports that C leaves the result undefined, which is signed
// overflow of a Signed add, sub, mul or neg (the Fig. 3 predicate);
// r is then the wrapped value.
func FoldConst(v *Value, x, y uint64) (r uint64, ok, ub bool) {
	w := v.Width
	switch v.Op {
	case OpZExt:
		return Mask(x, v.Args[0].Width), true, false
	case OpSExt:
		return Mask(uint64(foldSExt(x, v.Args[0].Width)), w), true, false
	case OpTrunc:
		return Mask(x, w), true, false
	case OpICmp:
		return foldCmp(v.Pred(), x, y, v.Args[0].Width)
	}
	x, y = Mask(x, w), Mask(y, w)
	switch v.Op {
	case OpAdd:
		r = x + y
	case OpSub:
		r = x - y
	case OpMul:
		r = x * y
	case OpNeg:
		r = -x
	case OpAnd:
		return x & y, true, false
	case OpOr:
		return x | y, true, false
	case OpXor:
		return x ^ y, true, false
	case OpNot:
		return Mask(^x, w), true, false
	case OpUDiv, OpURem:
		if y == 0 {
			return 0, false, false
		}
		if v.Op == OpUDiv {
			return x / y, true, false
		}
		return x % y, true, false
	case OpSDiv, OpSRem:
		sx, sy := foldSExt(x, w), foldSExt(y, w)
		if sy == 0 || (sy == -1 && sx == foldSExt(1<<uint(w-1), w)) {
			return 0, false, false
		}
		if v.Op == OpSDiv {
			return Mask(uint64(sx/sy), w), true, false
		}
		return Mask(uint64(sx%sy), w), true, false
	default:
		return 0, false, false
	}
	r = Mask(r, w)
	return r, true, v.Signed && signedOverflows(v.Op, x, y, r, w)
}

// ConstInt returns the value of a constant read as a signed integer of
// its width, and whether v is a constant at all.
func (v *Value) ConstInt() (int64, bool) {
	if v.Op != OpConst {
		return 0, false
	}
	return foldSExt(uint64(v.Aux), v.Width), true
}

func foldCmp(p Cmp, x, y uint64, w int) (r uint64, ok, ub bool) {
	x, y = Mask(x, w), Mask(y, w)
	var t bool
	switch p {
	case CmpEq:
		t = x == y
	case CmpNe:
		t = x != y
	case CmpULT:
		t = x < y
	case CmpULE:
		t = x <= y
	case CmpSLT:
		t = foldSExt(x, w) < foldSExt(y, w)
	case CmpSLE:
		t = foldSExt(x, w) <= foldSExt(y, w)
	default:
		return 0, false, false
	}
	if t {
		return 1, true, false
	}
	return 0, true, false
}

// signedOverflows reports whether the signed operation op on the
// masked w-bit operands x, y, whose wrapped result is r, overflows:
// the Fig. 3 signed-overflow UB predicate, evaluated concretely.
func signedOverflows(op Op, x, y, r uint64, w int) bool {
	sx, sy, sr := foldSExt(x, w) < 0, foldSExt(y, w) < 0, foldSExt(r, w) < 0
	switch op {
	case OpAdd:
		return sx == sy && sr != sx
	case OpSub:
		return sx != sy && sr != sx
	case OpNeg:
		return x == 1<<uint(w-1)
	case OpMul:
		a, b := foldSExt(x, w), foldSExt(y, w)
		if a == 0 || b == 0 {
			return false
		}
		if a == -1 && b == -1<<63 {
			return true // -MinInt64 overflows int64 (and any narrower width)
		}
		prod := a * b
		if prod/a != b { // overflowed 64 bits
			return true
		}
		return foldSExt(uint64(prod), w) != prod
	}
	return false
}

// Mask reduces x to its low w bits: the C* value of a w-bit integer.
func Mask(x uint64, w int) uint64 {
	if w >= 64 {
		return x
	}
	return x & (1<<uint(w) - 1)
}

// foldSExt reads the low w bits of x as a signed integer.
func foldSExt(x uint64, w int) int64 {
	if w >= 64 {
		return int64(x)
	}
	return int64(x<<uint(64-w)) >> uint(64-w)
}
