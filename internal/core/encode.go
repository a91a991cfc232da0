package core

import (
	"fmt"
	"math/big"

	"repro/internal/bv"
	"repro/internal/ir"
)

// encoder lowers IR values, reachability conditions, and UB conditions
// into bit-vector terms for one function. It implements the gated
// path-condition computation of Tu & Padua that STACK uses for
// intra-function reachability (paper §4.4), with back edges widened to
// fresh booleans (an acyclic approximation; see DESIGN.md).
type encoder struct {
	b        *bv.Builder
	fn       *ir.Func
	vals     map[*ir.Value]*bv.Term
	reach    map[*ir.Block]*bv.Term
	back     map[[2]*ir.Block]bool
	encoding map[*ir.Value]bool // cycle guard during value encoding
}

func newEncoder(b *bv.Builder, fn *ir.Func) *encoder {
	return &encoder{
		b:        b,
		fn:       fn,
		vals:     make(map[*ir.Value]*bv.Term),
		reach:    make(map[*ir.Block]*bv.Term),
		back:     ir.BackEdges(fn),
		encoding: make(map[*ir.Value]bool),
	}
}

// fresh returns a distinct free variable for v.
func (e *encoder) fresh(v *ir.Value, tag string) *bv.Term {
	w := v.Width
	if w == 0 {
		w = 1
	}
	return e.b.Var(fmt.Sprintf("%s.v%d", tag, v.ID), w)
}

// value returns the term for v, encoding on demand.
func (e *encoder) value(v *ir.Value) *bv.Term {
	if t, ok := e.vals[v]; ok {
		return t
	}
	if e.encoding[v] {
		// Value cycle (through loop phis): widen.
		t := e.fresh(v, "cycle")
		e.vals[v] = t
		return t
	}
	e.encoding[v] = true
	t := e.encodeValue(v)
	delete(e.encoding, v)
	e.vals[v] = t
	return t
}

func (e *encoder) encodeValue(v *ir.Value) *bv.Term {
	b := e.b
	arg := func(i int) *bv.Term { return e.value(v.Args[i]) }
	switch v.Op {
	case ir.OpConst:
		return b.Const(big.NewInt(v.Aux), v.Width)
	case ir.OpParam:
		return b.Var("param."+v.AuxName, v.Width)
	case ir.OpGlobal:
		return b.Var("global."+v.AuxName, v.Width)
	case ir.OpString:
		return e.fresh(v, "str")
	case ir.OpUnknown:
		name := v.AuxName
		if name == "" {
			name = "unknown"
		}
		return b.Var(fmt.Sprintf("%s.v%d", name, v.ID), v.Width)
	case ir.OpAdd:
		return b.Add(arg(0), arg(1))
	case ir.OpSub:
		return b.Sub(arg(0), arg(1))
	case ir.OpMul:
		return b.Mul(arg(0), arg(1))
	case ir.OpUDiv:
		return b.UDiv(arg(0), arg(1))
	case ir.OpSDiv:
		return b.SDiv(arg(0), arg(1))
	case ir.OpURem:
		return b.URem(arg(0), arg(1))
	case ir.OpSRem:
		return b.SRem(arg(0), arg(1))
	case ir.OpNeg:
		return b.Neg(arg(0))
	case ir.OpAnd:
		return b.And(arg(0), arg(1))
	case ir.OpOr:
		return b.Or(arg(0), arg(1))
	case ir.OpXor:
		return b.Xor(arg(0), arg(1))
	case ir.OpNot:
		return b.Not(arg(0))
	case ir.OpShl:
		return b.Shl(arg(0), arg(1))
	case ir.OpLShr:
		return b.LShr(arg(0), arg(1))
	case ir.OpAShr:
		return b.AShr(arg(0), arg(1))
	case ir.OpICmp:
		x, y := arg(0), arg(1)
		switch v.Pred() {
		case ir.CmpEq:
			return b.Eq(x, y)
		case ir.CmpNe:
			return b.Ne(x, y)
		case ir.CmpULT:
			return b.ULT(x, y)
		case ir.CmpULE:
			return b.ULE(x, y)
		case ir.CmpSLT:
			return b.SLT(x, y)
		case ir.CmpSLE:
			return b.SLE(x, y)
		}
	case ir.OpZExt:
		return b.ZExt(arg(0), v.Width)
	case ir.OpSExt:
		return b.SExt(arg(0), v.Width)
	case ir.OpTrunc:
		return b.Truncate(arg(0), v.Width)
	case ir.OpSelect:
		return b.ITE(arg(0), arg(1), arg(2))
	case ir.OpPtrAdd:
		return b.Add(arg(0), arg(1))
	case ir.OpIndexAddr:
		idx := arg(1)
		scaled := b.Mul(idx, b.ConstInt64(v.Aux, idx.Width()))
		return b.Add(arg(0), scaled)
	case ir.OpLoad:
		// Loads are opaque: memory is not modelled (paper §4.4 scales
		// by approximation; DESIGN.md documents this choice).
		return e.fresh(v, "load")
	case ir.OpCall:
		return e.encodeCall(v)
	case ir.OpPhi:
		return e.encodePhi(v)
	}
	panic(fmt.Sprintf("core: cannot encode %v", v.Op))
}

// encodeCall gives known pure library functions their semantics and
// treats everything else as opaque.
func (e *encoder) encodeCall(v *ir.Value) *bv.Term {
	b := e.b
	switch v.AuxName {
	case "abs", "labs":
		if len(v.Args) == 1 {
			x := e.value(v.Args[0])
			// C*: abs(INT_MIN) wraps to INT_MIN; matches the UB model.
			return b.ITE(b.SLT(x, b.ConstInt64(0, x.Width())), b.Neg(x), x)
		}
	}
	if v.Width == 0 {
		return b.Bool(true) // void call; value unused
	}
	return e.fresh(v, "call."+v.AuxName)
}

// encodePhi builds the gated-SSA gamma: an ITE chain over incoming
// edge conditions. Values arriving along back edges are widened to
// fresh variables.
func (e *encoder) encodePhi(v *ir.Value) *bv.Term {
	blk := v.Block
	for _, p := range blk.Preds {
		if e.back[[2]*ir.Block{p, blk}] {
			return e.fresh(v, "loop")
		}
	}
	if len(v.Args) == 0 {
		return e.fresh(v, "phi")
	}
	// Build right-to-left so the first predecessor's condition has
	// priority; the last value is the default arm.
	t := e.value(v.Args[len(v.Args)-1])
	for i := len(v.Args) - 2; i >= 0; i-- {
		cond := e.edgeCond(blk.Preds[i], blk)
		t = e.b.ITE(cond, e.value(v.Args[i]), t)
	}
	return t
}

// edgeCond is the condition under which control flows p -> b:
// R'(p) ∧ branch-condition.
func (e *encoder) edgeCond(p, b *ir.Block) *bv.Term {
	r := e.reachability(p)
	t := p.Term
	if t == nil || t.Op != ir.OpCondBr {
		return r
	}
	cond := e.value(t.Args[0])
	if len(p.Succs) == 2 && p.Succs[0] == b && p.Succs[1] == b {
		return r // degenerate both-edges
	}
	if p.Succs[0] == b {
		return e.b.And(r, cond)
	}
	return e.b.And(r, e.b.Not(cond))
}

// reachability returns R'(b), the reachability condition from the
// function entry (paper §4.4). Back edges contribute a fresh boolean
// (sound widening: it can only make more inputs reach b, which makes
// elimination queries harder to satisfy as UNSAT, i.e. conservative).
func (e *encoder) reachability(b *ir.Block) *bv.Term {
	if t, ok := e.reach[b]; ok {
		return t
	}
	// Guard against pathological pred cycles (only through back edges,
	// which we cut below; the placeholder is replaced before return).
	if b == e.fn.Entry {
		t := e.b.Bool(true)
		e.reach[b] = t
		return t
	}
	e.reach[b] = e.b.Var(fmt.Sprintf("reach.b%d.tmp", b.ID), 1)
	acc := e.b.Bool(false)
	for _, p := range b.Preds {
		if e.back[[2]*ir.Block{p, b}] {
			acc = e.b.Or(acc, e.b.Var(fmt.Sprintf("backedge.b%d_b%d", p.ID, b.ID), 1))
			continue
		}
		acc = e.b.Or(acc, e.edgeCond(p, b))
	}
	e.reach[b] = acc
	return acc
}

// ubTerm encodes one Figure 3 condition as a boolean term.
func (e *encoder) ubTerm(u *UBCond) *bv.Term {
	b := e.b
	v := u.Value
	switch u.Kind {
	case UBPointerOverflow:
		// p∞ + x∞ ∉ [0, 2^n − 1]: evaluate in n+2 bits with p unsigned
		// and x signed.
		p := e.value(v.Args[0])
		x := e.value(v.Args[1])
		n := p.Width()
		pe := b.ZExt(p, n+2)
		xe := b.SExt(x, n+2)
		sum := b.Add(pe, xe)
		maxAddr := new(big.Int).Lsh(big.NewInt(1), uint(n))
		maxAddr.Sub(maxAddr, big.NewInt(1))
		return b.Or(
			b.SLT(sum, b.ConstInt64(0, n+2)),
			b.SGT(sum, b.Const(maxAddr, n+2)),
		)
	case UBNullDeref:
		base := ir.RootPointer(v.Args[0])
		p := e.value(base)
		return b.Eq(p, b.ConstInt64(0, p.Width()))
	case UBSignedOverflow:
		switch v.Op {
		case ir.OpNeg:
			x := e.value(v.Args[0])
			return b.Eq(x, b.Const(minSigned(x.Width()), x.Width()))
		case ir.OpMul:
			x, y := e.value(v.Args[0]), e.value(v.Args[1])
			n := x.Width()
			prod := b.Mul(b.SExt(x, 2*n), b.SExt(y, 2*n))
			return b.Or(
				b.SLT(prod, b.Const(minSigned(n), 2*n)),
				b.SGT(prod, b.Const(maxSigned(n), 2*n)),
			)
		default: // Add, Sub
			x, y := e.value(v.Args[0]), e.value(v.Args[1])
			n := x.Width()
			xe, ye := b.SExt(x, n+1), b.SExt(y, n+1)
			var s *bv.Term
			if v.Op == ir.OpAdd {
				s = b.Add(xe, ye)
			} else {
				s = b.Sub(xe, ye)
			}
			return b.Or(
				b.SLT(s, b.Const(minSigned(n), n+1)),
				b.SGT(s, b.Const(maxSigned(n), n+1)),
			)
		}
	case UBDivByZero:
		y := e.value(v.Args[1])
		zero := b.Eq(y, b.ConstInt64(0, y.Width()))
		if v.Op == ir.OpSDiv || v.Op == ir.OpSRem {
			x := e.value(v.Args[0])
			n := x.Width()
			ovf := b.And(
				b.Eq(x, b.Const(minSigned(n), n)),
				b.Eq(y, b.ConstInt64(-1, n)),
			)
			return b.Or(zero, ovf)
		}
		return zero
	case UBOversizedShift:
		y := e.value(v.Args[1])
		// y < 0 ∨ y ≥ n; for signed amounts the unsigned comparison
		// subsumes the negative case.
		return b.UGE(y, b.ConstInt64(int64(v.Width), y.Width()))
	case UBBufferOverflow:
		idx := e.value(v.Args[1])
		n := idx.Width()
		return b.Or(
			b.SLT(idx, b.ConstInt64(0, n)),
			b.SGE(idx, b.ConstInt64(v.Aux2, n)),
		)
	case UBAbsOverflow:
		x := e.value(v.Args[0])
		return b.Eq(x, b.Const(minSigned(x.Width()), x.Width()))
	case UBMemcpyOverlap:
		if len(v.Args) < 3 {
			return b.Bool(false)
		}
		dst, src, ln := e.value(v.Args[0]), e.value(v.Args[1]), e.value(v.Args[2])
		ln = b.ZExt(ln, dst.Width())
		return b.Or(
			b.ULT(b.Sub(dst, src), ln),
			b.ULT(b.Sub(src, dst), ln),
		)
	case UBUseAfterFree:
		q := e.value(ir.RootPointer(v.Args[0]))
		p := e.value(u.aux.Args[0]) // the freed pointer
		return b.Eq(p, q)           // alias(p, q) modelled as equality
	case UBUseAfterRealloc:
		q := e.value(ir.RootPointer(v.Args[0]))
		p := e.value(u.aux.Args[0])
		np := e.value(u.aux) // realloc's result p′
		return b.And(b.Eq(p, q), b.Ne(np, b.ConstInt64(0, np.Width())))
	}
	panic("core: unhandled UB kind")
}

func minSigned(n int) *big.Int {
	v := new(big.Int).Lsh(big.NewInt(1), uint(n-1))
	return v.Neg(v)
}

func maxSigned(n int) *big.Int {
	v := new(big.Int).Lsh(big.NewInt(1), uint(n-1))
	return v.Sub(v, big.NewInt(1))
}
