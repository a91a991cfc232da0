package bv

import (
	"fmt"
	"math/big"
)

// Builder creates hash-consed terms. All terms combined in one
// expression must come from the same Builder. The zero value is not
// usable; call NewBuilder.
type Builder struct {
	table  map[key]*Term
	consts map[constKey]*Term
	vars   map[string]*Term
	nextID int
	arena  *Arena     // optional slab allocator; nil means plain heap
	wide   *evaluator // binaryBig's scratch for folds above 64 bits; made on first use
	// NoRewrite disables the word-level rewrite engine and commutative
	// canonicalization: terms intern exactly as constructed. This is the
	// reference mode of the differential test layer — a rewrite-free
	// builder paired with scratch solving defines the semantics the
	// optimized stack is checked against. Production callers leave it
	// false.
	NoRewrite bool
	// Stats.
	//
	// TermsCreated counts interned nodes; CacheHits counts hash-consing
	// hits; RewriteHits counts constructions answered by the word-level
	// rewrite engine (rewrite.go) without creating a new node. The hits
	// count the constructions callers request, so a caller that keeps
	// a term it built, as the checker keeps its ∆ terms, lowers them.
	TermsCreated int
	CacheHits    int
	RewriteHits  int
}

type key struct {
	op         Op
	width, lo  int
	a0, a1, a2 int // arg IDs; -1 if absent
}

// constKey identifies a constant by its width and its value modulo
// 2^width, split so that a constant up to 64 bits wide is keyed
// without allocating.
type constKey struct {
	width int
	lo    uint64 // the low 64 bits
	hi    string // the bits above 64 in hex; empty at width ≤ 64
}

// NewBuilder returns an empty term builder.
func NewBuilder() *Builder {
	return &Builder{
		table:  make(map[key]*Term),
		consts: make(map[constKey]*Term),
		vars:   make(map[string]*Term),
	}
}

// NewBuilderArena returns a builder whose term nodes and argument
// arrays are allocated from a — see Arena for the lifetime contract.
// The arena may be shared sequentially by successive builders (the
// checker resets it between functions); nil is equivalent to
// NewBuilder.
func NewBuilderArena(a *Arena) *Builder {
	b := NewBuilder()
	b.arena = a
	return b
}

// alloc returns a fresh zeroed Term, from the arena when present.
func (b *Builder) alloc() *Term {
	if b.arena != nil {
		return b.arena.newTerm()
	}
	return new(Term)
}

// intern returns the unique term with the given shape, creating it on
// first use. Absent argument slots are nil; all present arguments must
// precede absent ones.
func (b *Builder) intern(op Op, width, lo int, a0, a1, a2 *Term) *Term {
	k := key{op: op, width: width, lo: lo, a0: -1, a1: -1, a2: -1}
	n := 0
	if a0 != nil {
		k.a0 = a0.id
		n = 1
	}
	if a1 != nil {
		k.a1 = a1.id
		n = 2
	}
	if a2 != nil {
		k.a2 = a2.id
		n = 3
	}
	if ex, ok := b.table[k]; ok {
		b.CacheHits++
		return ex
	}
	t := b.alloc()
	t.op, t.width, t.lo, t.id = op, width, lo, b.nextID
	if n > 0 {
		if b.arena != nil {
			t.args = b.arena.newArgs(n)
		} else {
			t.args = make([]*Term, n)
		}
		t.args[0] = a0
		if n > 1 {
			t.args[1] = a1
		}
		if n > 2 {
			t.args[2] = a2
		}
	}
	b.nextID++
	b.TermsCreated++
	b.table[k] = t
	return t
}

func mask(width int) *big.Int {
	m := big.NewInt(1)
	m.Lsh(m, uint(width))
	return m.Sub(m, big.NewInt(1))
}

// Const returns the constant v (interpreted modulo 2^width) of the
// given width.
func (b *Builder) Const(v *big.Int, width int) *Term {
	if width <= 0 {
		panic("bv: nonpositive width")
	}
	if width <= 64 {
		// Uint64 is the low 64 bits of |v|; negating them modulo 2^64
		// gives the low 64 bits of v in two's complement.
		lo := v.Uint64()
		if v.Sign() < 0 {
			lo = -lo
		}
		return b.internConst(constKey{width: width, lo: lo & maskU(width)}, nil)
	}
	norm := new(big.Int).And(v, mask(width))
	hi := new(big.Int).Rsh(norm, 64).Text(16)
	return b.internConst(constKey{width, norm.Uint64(), hi}, norm)
}

// internConst returns the unique constant with key k, creating it on
// first use. norm is its value, or nil at width ≤ 64, where the value
// is built from k only when the term is new.
func (b *Builder) internConst(k constKey, norm *big.Int) *Term {
	if ex, ok := b.consts[k]; ok {
		b.CacheHits++
		return ex
	}
	if norm == nil {
		norm = new(big.Int).SetUint64(k.lo)
	}
	t := b.alloc()
	t.op, t.width, t.val, t.id = OpConst, k.width, norm, b.nextID
	b.nextID++
	b.TermsCreated++
	b.consts[k] = t
	return t
}

// ConstInt64 is Const for int64 values (two's complement for negatives).
func (b *Builder) ConstInt64(v int64, width int) *Term {
	return b.Const(big.NewInt(v), width)
}

// Bool returns the 1-bit constant for v.
func (b *Builder) Bool(v bool) *Term {
	if v {
		return b.ConstInt64(1, 1)
	}
	return b.ConstInt64(0, 1)
}

// Var returns the free variable with the given name and width,
// creating it on first use. Width mismatch on reuse panics: it is
// always a caller bug.
func (b *Builder) Var(name string, width int) *Term {
	if t, ok := b.vars[name]; ok {
		if t.width != width {
			panic(fmt.Sprintf("bv: variable %q redeclared with width %d (was %d)", name, width, t.width))
		}
		// A re-lookup is a hash-consing hit like any other interned
		// construction (whole-function value graphs re-read the same
		// variables constantly), and counting it keeps CacheHits
		// consistent across Const, Var, and compound terms.
		b.CacheHits++
		return t
	}
	t := b.alloc()
	t.op, t.width, t.name, t.id = OpVar, width, name, b.nextID
	b.nextID++
	b.TermsCreated++
	b.vars[name] = t
	return t
}

func (b *Builder) binary(op Op, x, y *Term) *Term {
	if t, done := b.binaryPre(op, &x, &y); done {
		return t
	}
	if !b.NoRewrite && acCommutative(op) {
		if t := b.canonChain(op, x, y); t != nil {
			return t
		}
	}
	return b.internBinary(op, x, y)
}

// binaryNoCanon is binary without chain canonicalization: the pairwise
// rewrite rules still run, but the operand chain interns as
// constructed. canonChain rebuilds through it so that reassembling a
// sorted chain cannot recurse into canonicalizing the same multiset.
func (b *Builder) binaryNoCanon(op Op, x, y *Term) *Term {
	if t, done := b.binaryPre(op, &x, &y); done {
		return t
	}
	return b.internBinary(op, x, y)
}

// binaryPre runs the shared front half of binary construction: width
// checking, the constant-to-right swap for commutative operations
// (mutating *x/*y), and the pairwise rewrite engine. done reports that
// t is the finished result.
func (b *Builder) binaryPre(op Op, x, y **Term) (t *Term, done bool) {
	if (*x).width != (*y).width {
		panic(fmt.Sprintf("bv: width mismatch %d vs %d in %v", (*x).width, (*y).width, op))
	}
	// Canonicalize commutative operations so a lone constant operand
	// sits on the right: the rewrite rules only inspect y, and the
	// interned node is shared between c⊕x and x⊕c.
	if !b.NoRewrite && (*x).op == OpConst && (*y).op != OpConst {
		switch op {
		case OpAnd, OpOr, OpXor, OpAdd, OpMul, OpEq:
			*x, *y = *y, *x
		}
	}
	if !b.NoRewrite {
		if t := b.rewriteBinary(op, *x, *y); t != nil {
			return t, true
		}
	}
	return nil, false
}

func (b *Builder) internBinary(op Op, x, y *Term) *Term {
	return b.intern(op, binaryWidth(op, x.width), 0, x, y, nil)
}

// binaryWidth is the width of a binary operation on w-bit operands.
func binaryWidth(op Op, w int) int {
	switch op {
	case OpEq, OpULT, OpULE, OpSLT, OpSLE:
		return 1
	}
	return w
}

// --- Public constructors -------------------------------------------------

// Not returns bitwise complement.
func (b *Builder) Not(x *Term) *Term {
	if !b.NoRewrite {
		if t := b.rewriteNot(x); t != nil {
			return t
		}
	}
	return b.intern(OpNot, x.width, 0, x, nil, nil)
}

// Neg returns two's-complement negation.
func (b *Builder) Neg(x *Term) *Term {
	if !b.NoRewrite {
		if t := b.rewriteNeg(x); t != nil {
			return t
		}
	}
	return b.intern(OpNeg, x.width, 0, x, nil, nil)
}

// And, Or, Xor are bitwise; on width-1 terms they double as the boolean
// connectives.
func (b *Builder) And(x, y *Term) *Term { return b.binary(OpAnd, x, y) }
func (b *Builder) Or(x, y *Term) *Term  { return b.binary(OpOr, x, y) }
func (b *Builder) Xor(x, y *Term) *Term { return b.binary(OpXor, x, y) }

// Add, Sub, Mul are modular arithmetic.
func (b *Builder) Add(x, y *Term) *Term { return b.binary(OpAdd, x, y) }
func (b *Builder) Sub(x, y *Term) *Term { return b.binary(OpSub, x, y) }
func (b *Builder) Mul(x, y *Term) *Term { return b.binary(OpMul, x, y) }

// UDiv and URem follow SMT-LIB totalization: x/0 = 2^w-1, x%0 = x.
func (b *Builder) UDiv(x, y *Term) *Term { return b.binary(OpUDiv, x, y) }
func (b *Builder) URem(x, y *Term) *Term { return b.binary(OpURem, x, y) }

// SDiv and SRem are signed division truncating toward zero.
func (b *Builder) SDiv(x, y *Term) *Term { return b.binary(OpSDiv, x, y) }
func (b *Builder) SRem(x, y *Term) *Term { return b.binary(OpSRem, x, y) }

// Shl, LShr, AShr shift by the unsigned value of y.
func (b *Builder) Shl(x, y *Term) *Term  { return b.binary(OpShl, x, y) }
func (b *Builder) LShr(x, y *Term) *Term { return b.binary(OpLShr, x, y) }
func (b *Builder) AShr(x, y *Term) *Term { return b.binary(OpAShr, x, y) }

// Eq returns the width-1 equality predicate.
func (b *Builder) Eq(x, y *Term) *Term { return b.binary(OpEq, x, y) }

// Ne is ¬(x = y).
func (b *Builder) Ne(x, y *Term) *Term { return b.Not(b.Eq(x, y)) }

// ULT/ULE/UGT/UGE are unsigned comparisons; SLT/SLE/SGT/SGE signed.
func (b *Builder) ULT(x, y *Term) *Term { return b.binary(OpULT, x, y) }
func (b *Builder) ULE(x, y *Term) *Term { return b.binary(OpULE, x, y) }
func (b *Builder) UGT(x, y *Term) *Term { return b.binary(OpULT, y, x) }
func (b *Builder) UGE(x, y *Term) *Term { return b.binary(OpULE, y, x) }
func (b *Builder) SLT(x, y *Term) *Term { return b.binary(OpSLT, x, y) }
func (b *Builder) SLE(x, y *Term) *Term { return b.binary(OpSLE, x, y) }
func (b *Builder) SGT(x, y *Term) *Term { return b.binary(OpSLT, y, x) }
func (b *Builder) SGE(x, y *Term) *Term { return b.binary(OpSLE, y, x) }

// ITE returns if-then-else; cond must have width 1, x and y equal widths.
func (b *Builder) ITE(cond, x, y *Term) *Term {
	if cond.width != 1 {
		panic("bv: ITE condition must have width 1")
	}
	if x.width != y.width {
		panic("bv: ITE arm width mismatch")
	}
	if !b.NoRewrite {
		if t := b.rewriteITE(cond, x, y); t != nil {
			return t
		}
	}
	return b.intern(OpITE, x.width, 0, cond, x, y)
}

// ZExt zero-extends x to width w (w ≥ x.Width()).
func (b *Builder) ZExt(x *Term, w int) *Term {
	if w < x.width {
		panic("bv: ZExt narrows")
	}
	if w == x.width {
		return x
	}
	if !b.NoRewrite {
		if t := b.rewriteZExt(x, w); t != nil {
			return t
		}
	}
	return b.intern(OpZExt, w, 0, x, nil, nil)
}

// SExt sign-extends x to width w.
func (b *Builder) SExt(x *Term, w int) *Term {
	if w < x.width {
		panic("bv: SExt narrows")
	}
	if w == x.width {
		return x
	}
	if !b.NoRewrite {
		if t := b.rewriteSExt(x, w); t != nil {
			return t
		}
	}
	return b.intern(OpSExt, w, 0, x, nil, nil)
}

// Extract returns bits [lo, hi] of x (inclusive, hi ≥ lo).
func (b *Builder) Extract(x *Term, hi, lo int) *Term {
	if lo < 0 || hi >= x.width || hi < lo {
		panic(fmt.Sprintf("bv: bad extract [%d:%d] of width %d", hi, lo, x.width))
	}
	w := hi - lo + 1
	if w == x.width {
		return x
	}
	if !b.NoRewrite {
		if t := b.rewriteExtract(x, hi, lo); t != nil {
			return t
		}
	}
	return b.intern(OpExtract, w, lo, x, nil, nil)
}

// Concat returns hi ++ lo (hi occupies the most significant bits).
func (b *Builder) Concat(hi, lo *Term) *Term {
	if !b.NoRewrite {
		if t := b.rewriteConcat(hi, lo); t != nil {
			return t
		}
	}
	return b.intern(OpConcat, hi.width+lo.width, 0, hi, lo, nil)
}

// Implies returns ¬x ∨ y for width-1 terms.
func (b *Builder) Implies(x, y *Term) *Term { return b.Or(b.Not(x), y) }

// Truncate returns the low w bits of x.
func (b *Builder) Truncate(x *Term, w int) *Term { return b.Extract(x, w-1, 0) }

// AndN folds And over a list; the empty conjunction is true.
func (b *Builder) AndN(ts ...*Term) *Term {
	acc := b.Bool(true)
	for _, t := range ts {
		acc = b.And(acc, t)
	}
	return acc
}

// OrN folds Or over a list; the empty disjunction is false.
func (b *Builder) OrN(ts ...*Term) *Term {
	acc := b.Bool(false)
	for _, t := range ts {
		acc = b.Or(acc, t)
	}
	return acc
}
