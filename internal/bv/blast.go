package bv

import (
	"fmt"

	"repro/internal/sat"
)

// blaster lowers terms to CNF over a sat.Solver using Tseitin encoding.
// Each term maps to a vector of SAT literals, least significant bit
// first.
type blaster struct {
	s     *sat.Solver
	cache map[*Term][]sat.Lit
	// blasts counts cache misses, i.e. terms actually lowered to CNF.
	// Terms already in the cache cost a map lookup; the gap between
	// queries issued and terms blasted is what incremental sessions
	// amortize.
	blasts int64
	// inputs lists the variables lowered so far, in blast order, each
	// with its literal vector: the assignment a SAT model gives them is
	// what Session stores as a witness.
	inputs []input
	// Constant literals: litTrue is a variable forced true.
	litTrue  sat.Lit
	litFalse sat.Lit
}

type input struct {
	v    *Term
	lits []sat.Lit
}

func newBlaster(s *sat.Solver) *blaster {
	b := &blaster{s: s, cache: make(map[*Term][]sat.Lit)}
	b.initConst()
	return b
}

// initConst makes variable 0 of the empty SAT solver the constant true.
func (b *blaster) initConst() {
	b.litTrue = sat.NewLit(b.s.NewVar(), false)
	b.litFalse = b.litTrue.Not()
	b.s.AddClause(b.litTrue)
}

// reset puts the blaster and its SAT solver back in the state
// newBlaster gives, keeping the cache's and the solver's storage.
func (b *blaster) reset() {
	b.s.Reset()
	clear(b.cache)
	clear(b.inputs) // drop the old terms, so they are not kept reachable
	b.inputs = b.inputs[:0]
	b.blasts = 0
	b.initConst()
}

func (b *blaster) fresh() sat.Lit { return sat.NewLit(b.s.NewVar(), false) }

// constLit returns the literal representing boolean constant v.
func (b *blaster) constLit(v bool) sat.Lit {
	if v {
		return b.litTrue
	}
	return b.litFalse
}

// encAnd returns a literal z with z ↔ x ∧ y.
func (b *blaster) encAnd(x, y sat.Lit) sat.Lit {
	if x == b.litFalse || y == b.litFalse {
		return b.litFalse
	}
	if x == b.litTrue {
		return y
	}
	if y == b.litTrue {
		return x
	}
	if x == y {
		return x
	}
	if x == y.Not() {
		return b.litFalse
	}
	z := b.fresh()
	b.s.AddClause(z.Not(), x)
	b.s.AddClause(z.Not(), y)
	b.s.AddClause(z, x.Not(), y.Not())
	return z
}

func (b *blaster) encOr(x, y sat.Lit) sat.Lit {
	return b.encAnd(x.Not(), y.Not()).Not()
}

// encXor returns z ↔ x ⊕ y.
func (b *blaster) encXor(x, y sat.Lit) sat.Lit {
	if x == b.litFalse {
		return y
	}
	if y == b.litFalse {
		return x
	}
	if x == b.litTrue {
		return y.Not()
	}
	if y == b.litTrue {
		return x.Not()
	}
	if x == y {
		return b.litFalse
	}
	if x == y.Not() {
		return b.litTrue
	}
	z := b.fresh()
	b.s.AddClause(z.Not(), x, y)
	b.s.AddClause(z.Not(), x.Not(), y.Not())
	b.s.AddClause(z, x, y.Not())
	b.s.AddClause(z, x.Not(), y)
	return z
}

// encITE returns z ↔ (c ? x : y).
func (b *blaster) encITE(c, x, y sat.Lit) sat.Lit {
	if c == b.litTrue {
		return x
	}
	if c == b.litFalse {
		return y
	}
	if x == y {
		return x
	}
	z := b.fresh()
	b.s.AddClause(z.Not(), c.Not(), x)
	b.s.AddClause(z.Not(), c, y)
	b.s.AddClause(z, c.Not(), x.Not())
	b.s.AddClause(z, c, y.Not())
	return z
}

// encFullAdder returns (sum, carry) for x + y + cin.
func (b *blaster) encFullAdder(x, y, cin sat.Lit) (sum, cout sat.Lit) {
	sum = b.encXor(b.encXor(x, y), cin)
	cout = b.encOr(b.encAnd(x, y), b.encAnd(cin, b.encXor(x, y)))
	return sum, cout
}

// addVec returns x + y + cin as a bit vector of the same width.
func (b *blaster) addVec(x, y []sat.Lit, cin sat.Lit) []sat.Lit {
	out := make([]sat.Lit, len(x))
	c := cin
	for i := range x {
		out[i], c = b.encFullAdder(x[i], y[i], c)
	}
	return out
}

func (b *blaster) negVec(x []sat.Lit) []sat.Lit {
	inv := make([]sat.Lit, len(x))
	for i, l := range x {
		inv[i] = l.Not()
	}
	zero := make([]sat.Lit, len(x))
	for i := range zero {
		zero[i] = b.litFalse
	}
	return b.addVec(inv, zero, b.litTrue)
}

// ult returns the literal for unsigned x < y.
func (b *blaster) ult(x, y []sat.Lit) sat.Lit {
	// From LSB to MSB: lt_i = (¬x_i ∧ y_i) ∨ ((x_i ↔ y_i) ∧ lt_{i-1})
	lt := b.litFalse
	for i := 0; i < len(x); i++ {
		eq := b.encXor(x[i], y[i]).Not()
		lt = b.encOr(b.encAnd(x[i].Not(), y[i]), b.encAnd(eq, lt))
	}
	return lt
}

func (b *blaster) slt(x, y []sat.Lit) sat.Lit {
	n := len(x)
	if n == 1 {
		// 1-bit signed: -1 < 0, i.e. x=1 ∧ y=0.
		return b.encAnd(x[0], y[0].Not())
	}
	sx, sy := x[n-1], y[n-1]
	// Same sign: unsigned compare of remaining bits (including sign bit
	// works too since equal). Different sign: x negative → less.
	u := b.ult(x, y)
	sameSign := b.encXor(sx, sy).Not()
	return b.encOr(b.encAnd(sameSign, u), b.encAnd(sx, sy.Not()))
}

func (b *blaster) eqVec(x, y []sat.Lit) sat.Lit {
	acc := b.litTrue
	for i := range x {
		acc = b.encAnd(acc, b.encXor(x[i], y[i]).Not())
	}
	return acc
}

func (b *blaster) iteVec(c sat.Lit, x, y []sat.Lit) []sat.Lit {
	out := make([]sat.Lit, len(x))
	for i := range x {
		out[i] = b.encITE(c, x[i], y[i])
	}
	return out
}

// mulVec returns x*y mod 2^n via shift-and-add.
func (b *blaster) mulVec(x, y []sat.Lit) []sat.Lit {
	n := len(x)
	acc := make([]sat.Lit, n)
	for i := range acc {
		acc[i] = b.litFalse
	}
	for i := 0; i < n; i++ {
		// partial = (y[i] ? x : 0) << i
		part := make([]sat.Lit, n)
		for j := range part {
			part[j] = b.litFalse
		}
		for j := 0; i+j < n; j++ {
			part[i+j] = b.encAnd(x[j], y[i])
		}
		acc = b.addVec(acc, part, b.litFalse)
	}
	return acc
}

// udivurem returns (quotient, remainder) of unsigned division by
// restoring long division. Division by zero yields q=all-ones, r=x
// (SMT-LIB semantics), enforced with an ITE on the zero test.
func (b *blaster) udivurem(x, y []sat.Lit) (q, r []sat.Lit) {
	n := len(x)
	rem := make([]sat.Lit, n)
	for i := range rem {
		rem[i] = b.litFalse
	}
	q = make([]sat.Lit, n)
	for i := n - 1; i >= 0; i-- {
		// rem = rem << 1 | x[i]
		rem = append([]sat.Lit{x[i]}, rem[:n-1]...)
		// if rem >= y { rem -= y; q[i] = 1 }
		ge := b.ult(rem, y).Not()
		sub := b.addVec(rem, b.negVec(y), b.litFalse)
		rem = b.iteVec(ge, sub, rem)
		q[i] = ge
	}
	// Division by zero: q = ~0, r = x.
	yZero := b.litTrue
	for _, l := range y {
		yZero = b.encAnd(yZero, l.Not())
	}
	allOnes := make([]sat.Lit, n)
	for i := range allOnes {
		allOnes[i] = b.litTrue
	}
	q = b.iteVec(yZero, allOnes, q)
	r = b.iteVec(yZero, x, rem)
	return q, r
}

// shiftVec encodes x shifted by the unsigned value of amt, as a
// logarithmic barrel shifter. kind: 'l' = shl, 'r' = lshr, 'a' = ashr.
// Only the amount bits with 2^bit < width get a stage; a shift by the
// width or more produces 0 (sign fill for ashr), so all higher bits
// together select the fill with one ITE on their OR.
func (b *blaster) shiftVec(x, amt []sat.Lit, kind byte) []sat.Lit {
	n := len(x)
	fill := b.litFalse
	if kind == 'a' {
		fill = x[n-1]
	}
	cur := append([]sat.Lit(nil), x...)
	bit := 0
	for ; bit < len(amt) && 1<<bit < n; bit++ {
		sh := 1 << bit
		next := make([]sat.Lit, n)
		for i := 0; i < n; i++ {
			var shifted sat.Lit
			switch kind {
			case 'l':
				if i-sh >= 0 {
					shifted = cur[i-sh]
				} else {
					shifted = b.litFalse
				}
			default: // 'r', 'a'
				if i+sh < n {
					shifted = cur[i+sh]
				} else {
					shifted = fill
				}
			}
			next[i] = b.encITE(amt[bit], shifted, cur[i])
		}
		cur = next
	}
	over := b.litFalse
	for _, l := range amt[bit:] {
		over = b.encOr(over, l)
	}
	for i := range cur {
		cur[i] = b.encITE(over, fill, cur[i])
	}
	return cur
}

// has reports whether t has already been lowered by this blaster.
func (b *blaster) has(t *Term) bool {
	_, ok := b.cache[t]
	return ok
}

// blast returns the literal vector for t, memoized.
func (b *blaster) blast(bld *Builder, t *Term) []sat.Lit {
	if v, ok := b.cache[t]; ok {
		return v
	}
	b.blasts++
	var out []sat.Lit
	switch t.op {
	case OpConst:
		out = make([]sat.Lit, t.width)
		for i := 0; i < t.width; i++ {
			out[i] = b.constLit(t.val.Bit(i) == 1)
		}
	case OpVar:
		out = make([]sat.Lit, t.width)
		for i := range out {
			out[i] = b.fresh()
		}
		b.inputs = append(b.inputs, input{t, out})
	case OpNot:
		x := b.blast(bld, t.args[0])
		out = make([]sat.Lit, len(x))
		for i, l := range x {
			out[i] = l.Not()
		}
	case OpNeg:
		out = b.negVec(b.blast(bld, t.args[0]))
	case OpAnd, OpOr, OpXor:
		x := b.blast(bld, t.args[0])
		y := b.blast(bld, t.args[1])
		out = make([]sat.Lit, len(x))
		for i := range x {
			switch t.op {
			case OpAnd:
				out[i] = b.encAnd(x[i], y[i])
			case OpOr:
				out[i] = b.encOr(x[i], y[i])
			default:
				out[i] = b.encXor(x[i], y[i])
			}
		}
	case OpAdd:
		out = b.addVec(b.blast(bld, t.args[0]), b.blast(bld, t.args[1]), b.litFalse)
	case OpSub:
		y := b.blast(bld, t.args[1])
		inv := make([]sat.Lit, len(y))
		for i, l := range y {
			inv[i] = l.Not()
		}
		out = b.addVec(b.blast(bld, t.args[0]), inv, b.litTrue)
	case OpMul:
		out = b.mulVec(b.blast(bld, t.args[0]), b.blast(bld, t.args[1]))
	case OpUDiv:
		q, _ := b.udivurem(b.blast(bld, t.args[0]), b.blast(bld, t.args[1]))
		out = q
	case OpURem:
		_, r := b.udivurem(b.blast(bld, t.args[0]), b.blast(bld, t.args[1]))
		out = r
	case OpSDiv, OpSRem:
		out = b.signedDivRem(bld, t)
	case OpShl:
		out = b.shiftVec(b.blast(bld, t.args[0]), b.blast(bld, t.args[1]), 'l')
	case OpLShr:
		out = b.shiftVec(b.blast(bld, t.args[0]), b.blast(bld, t.args[1]), 'r')
	case OpAShr:
		out = b.shiftVec(b.blast(bld, t.args[0]), b.blast(bld, t.args[1]), 'a')
	case OpEq:
		out = []sat.Lit{b.eqVec(b.blast(bld, t.args[0]), b.blast(bld, t.args[1]))}
	case OpULT:
		out = []sat.Lit{b.ult(b.blast(bld, t.args[0]), b.blast(bld, t.args[1]))}
	case OpULE:
		out = []sat.Lit{b.ult(b.blast(bld, t.args[1]), b.blast(bld, t.args[0])).Not()}
	case OpSLT:
		out = []sat.Lit{b.slt(b.blast(bld, t.args[0]), b.blast(bld, t.args[1]))}
	case OpSLE:
		out = []sat.Lit{b.slt(b.blast(bld, t.args[1]), b.blast(bld, t.args[0])).Not()}
	case OpITE:
		c := b.blast(bld, t.args[0])[0]
		out = b.iteVec(c, b.blast(bld, t.args[1]), b.blast(bld, t.args[2]))
	case OpZExt:
		x := b.blast(bld, t.args[0])
		out = make([]sat.Lit, t.width)
		copy(out, x)
		for i := len(x); i < t.width; i++ {
			out[i] = b.litFalse
		}
	case OpSExt:
		x := b.blast(bld, t.args[0])
		out = make([]sat.Lit, t.width)
		copy(out, x)
		for i := len(x); i < t.width; i++ {
			out[i] = x[len(x)-1]
		}
	case OpExtract:
		x := b.blast(bld, t.args[0])
		out = append([]sat.Lit(nil), x[t.lo:t.lo+t.width]...)
	case OpConcat:
		hi := b.blast(bld, t.args[0])
		lo := b.blast(bld, t.args[1])
		out = append(append([]sat.Lit(nil), lo...), hi...)
	default:
		panic(fmt.Sprintf("bv: blast: unexpected op %v", t.op))
	}
	if len(out) != t.width {
		panic(fmt.Sprintf("bv: blast width mismatch for %v: got %d want %d", t.op, len(out), t.width))
	}
	b.cache[t] = out
	return out
}

// signedDivRem lowers sdiv/srem to unsigned division on magnitudes.
func (b *blaster) signedDivRem(bld *Builder, t *Term) []sat.Lit {
	x := b.blast(bld, t.args[0])
	y := b.blast(bld, t.args[1])
	n := len(x)
	sx, sy := x[n-1], y[n-1]
	ax := b.iteVec(sx, b.negVec(x), x)
	ay := b.iteVec(sy, b.negVec(y), y)
	q, r := b.udivurem(ax, ay)
	// Division by zero: match SMT-LIB via the unsigned layer? The
	// unsigned layer returns q=~0, r=ax for ay==0; to keep the exact
	// SMT-LIB sdiv-by-zero semantics (x<0 → 1 else ~0, rem = x) we
	// override explicitly below.
	yZero := b.litTrue
	for _, l := range y {
		yZero = b.encAnd(yZero, l.Not())
	}
	if t.op == OpSDiv {
		qSigned := b.iteVec(b.encXor(sx, sy), b.negVec(q), q)
		one := make([]sat.Lit, n)
		allOnes := make([]sat.Lit, n)
		for i := range one {
			one[i] = b.litFalse
			allOnes[i] = b.litTrue
		}
		one[0] = b.litTrue
		divZero := b.iteVec(sx, one, allOnes)
		return b.iteVec(yZero, divZero, qSigned)
	}
	rSigned := b.iteVec(sx, b.negVec(r), r)
	return b.iteVec(yZero, x, rSigned)
}
