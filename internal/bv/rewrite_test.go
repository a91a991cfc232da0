package bv

// Tests for the word-level rewrite engine. Every rule is verified two
// ways: structurally (the constructor returns the expected normal
// form) and semantically, against an independent concrete evaluator
// (the bv analogue of ir.Exec) on random operand values — a rewrite
// may only ever replace a term with one that evaluates identically for
// all inputs.

import (
	"fmt"
	"math/big"
	"math/rand"
	"testing"
)

// evalTerm evaluates t under env with the package's concrete
// evaluator (eval.go), which is written independently of the rewrite
// rules it checks. A variable env does not bind panics.
func evalTerm(t *Term, env map[string]*big.Int) *big.Int {
	var e evaluator
	return e.value(t, envInput(env))
}

// envInput reads variables by name from env.
func envInput(env map[string]*big.Int) inputFunc {
	return func(v *Term) []uint64 {
		x, ok := env[v.name]
		if !ok {
			panic("evalTerm: unbound variable " + v.name)
		}
		return toWords(new(big.Int).And(x, mask(v.width)))
	}
}

// toWords splits a non-negative x into 64-bit words, least significant
// first.
func toWords(x *big.Int) []uint64 {
	var ws []uint64
	for x = new(big.Int).Set(x); x.Sign() != 0; x.Rsh(x, 64) {
		ws = append(ws, new(big.Int).And(x, mask(64)).Uint64())
	}
	return ws
}

// refBinary applies a binary operation concretely at width w with the
// evaluator's math/big path. Operands and result are normalized to
// [0, 2^w); comparison results are 0/1.
func refBinary(op Op, w int, x, y *big.Int) *big.Int {
	var e evaluator
	return e.binaryBig(new(big.Int), op, w, x, y)
}

const ruleWidth = 8

// ruleTest exercises one rewrite rule: build constructs the expression
// through the Builder (triggering the rule), ref gives the intended
// concrete semantics of the *unrewritten* expression, and shape
// asserts the normal form.
type ruleTest struct {
	name  string
	build func(b *Builder, x, y *Term) *Term
	ref   func(x, y *big.Int) *big.Int
	shape func(b *Builder, x, y, got *Term) bool
}

func isConstVal(t *Term, v int64) bool {
	return t.op == OpConst && t.val.Cmp(new(big.Int).And(big.NewInt(v), mask(t.width))) == 0
}

var ruleTests = []ruleTest{
	// Identity / annihilator rules.
	{"and-zero", func(b *Builder, x, y *Term) *Term { return b.And(x, b.ConstInt64(0, ruleWidth)) },
		func(x, y *big.Int) *big.Int { return big.NewInt(0) },
		func(b *Builder, x, y, got *Term) bool { return isConstVal(got, 0) }},
	{"and-allones", func(b *Builder, x, y *Term) *Term { return b.And(x, b.ConstInt64(-1, ruleWidth)) },
		func(x, y *big.Int) *big.Int { return x },
		func(b *Builder, x, y, got *Term) bool { return got == x }},
	{"and-self", func(b *Builder, x, y *Term) *Term { return b.And(x, x) },
		func(x, y *big.Int) *big.Int { return x },
		func(b *Builder, x, y, got *Term) bool { return got == x }},
	{"and-complement", func(b *Builder, x, y *Term) *Term { return b.And(x, b.Not(x)) },
		func(x, y *big.Int) *big.Int { return big.NewInt(0) },
		func(b *Builder, x, y, got *Term) bool { return isConstVal(got, 0) }},
	{"or-zero", func(b *Builder, x, y *Term) *Term { return b.Or(x, b.ConstInt64(0, ruleWidth)) },
		func(x, y *big.Int) *big.Int { return x },
		func(b *Builder, x, y, got *Term) bool { return got == x }},
	{"or-allones", func(b *Builder, x, y *Term) *Term { return b.Or(x, b.ConstInt64(-1, ruleWidth)) },
		func(x, y *big.Int) *big.Int { return mask(ruleWidth) },
		func(b *Builder, x, y, got *Term) bool { return isAllOnes(got) }},
	{"or-self", func(b *Builder, x, y *Term) *Term { return b.Or(x, x) },
		func(x, y *big.Int) *big.Int { return x },
		func(b *Builder, x, y, got *Term) bool { return got == x }},
	{"or-complement", func(b *Builder, x, y *Term) *Term { return b.Or(x, b.Not(x)) },
		func(x, y *big.Int) *big.Int { return mask(ruleWidth) },
		func(b *Builder, x, y, got *Term) bool { return isAllOnes(got) }},
	{"xor-self", func(b *Builder, x, y *Term) *Term { return b.Xor(x, x) },
		func(x, y *big.Int) *big.Int { return big.NewInt(0) },
		func(b *Builder, x, y, got *Term) bool { return isConstVal(got, 0) }},
	{"xor-zero", func(b *Builder, x, y *Term) *Term { return b.Xor(x, b.ConstInt64(0, ruleWidth)) },
		func(x, y *big.Int) *big.Int { return x },
		func(b *Builder, x, y, got *Term) bool { return got == x }},
	{"xor-allones", func(b *Builder, x, y *Term) *Term { return b.Xor(x, b.ConstInt64(-1, ruleWidth)) },
		func(x, y *big.Int) *big.Int { return new(big.Int).Xor(x, mask(ruleWidth)) },
		func(b *Builder, x, y, got *Term) bool { return got.op == OpNot && got.args[0] == x }},
	{"xor-complement", func(b *Builder, x, y *Term) *Term { return b.Xor(x, b.Not(x)) },
		func(x, y *big.Int) *big.Int { return mask(ruleWidth) },
		func(b *Builder, x, y, got *Term) bool { return isAllOnes(got) }},

	// Absorption (both operand orders; the complemented-factor forms
	// are the shapes reachability joins collapse to).
	{"or-absorb", func(b *Builder, x, y *Term) *Term { return b.Or(x, b.And(x, y)) },
		func(x, y *big.Int) *big.Int { return x },
		func(b *Builder, x, y, got *Term) bool { return got == x }},
	{"or-absorb-swapped", func(b *Builder, x, y *Term) *Term { return b.Or(b.And(y, x), x) },
		func(x, y *big.Int) *big.Int { return x },
		func(b *Builder, x, y, got *Term) bool { return got == x }},
	{"or-absorb-complement", func(b *Builder, x, y *Term) *Term { return b.Or(x, b.And(b.Not(x), y)) },
		func(x, y *big.Int) *big.Int { return new(big.Int).Or(x, y) },
		func(b *Builder, x, y, got *Term) bool { return got == b.Or(x, y) }},
	{"or-absorb-complement-swapped", func(b *Builder, x, y *Term) *Term { return b.Or(b.And(y, b.Not(x)), x) },
		func(x, y *big.Int) *big.Int { return new(big.Int).Or(x, y) },
		func(b *Builder, x, y, got *Term) bool { return got == b.Or(x, y) }},
	{"and-absorb", func(b *Builder, x, y *Term) *Term { return b.And(x, b.Or(x, y)) },
		func(x, y *big.Int) *big.Int { return x },
		func(b *Builder, x, y, got *Term) bool { return got == x }},
	{"and-absorb-swapped", func(b *Builder, x, y *Term) *Term { return b.And(b.Or(y, x), x) },
		func(x, y *big.Int) *big.Int { return x },
		func(b *Builder, x, y, got *Term) bool { return got == x }},
	{"and-absorb-complement", func(b *Builder, x, y *Term) *Term { return b.And(x, b.Or(b.Not(x), y)) },
		func(x, y *big.Int) *big.Int { return new(big.Int).And(x, y) },
		func(b *Builder, x, y, got *Term) bool { return got == b.And(x, y) }},
	{"and-absorb-complement-swapped", func(b *Builder, x, y *Term) *Term { return b.And(b.Or(y, b.Not(x)), x) },
		func(x, y *big.Int) *big.Int { return new(big.Int).And(x, y) },
		func(b *Builder, x, y, got *Term) bool { return got == b.And(x, y) }},

	// Complementary factoring: a two-way reachability join collapses
	// to the shared path prefix, including through one level of
	// left-associated folding (three predecessors).
	{"or-factor", func(b *Builder, x, y *Term) *Term { return b.Or(b.And(x, y), b.And(x, b.Not(y))) },
		func(x, y *big.Int) *big.Int { return x },
		func(b *Builder, x, y, got *Term) bool { return got == x }},
	{"or-factor-swapped", func(b *Builder, x, y *Term) *Term { return b.Or(b.And(y, x), b.And(b.Not(y), x)) },
		func(x, y *big.Int) *big.Int { return x },
		func(b *Builder, x, y, got *Term) bool { return got == x }},
	{"or-factor-assoc", func(b *Builder, x, y *Term) *Term {
		// (p | (x & y)) | (x & ¬y) with p inert: the complementary pair
		// factors through the left-associated fold.
		return b.Or(b.Or(b.Xor(x, y), b.And(x, y)), b.And(x, b.Not(y)))
	},
		func(x, y *big.Int) *big.Int { return new(big.Int).Or(new(big.Int).Xor(x, y), x) },
		func(b *Builder, x, y, got *Term) bool { return got == b.Or(b.Xor(x, y), x) }},
	{"and-factor", func(b *Builder, x, y *Term) *Term { return b.And(b.Or(x, y), b.Or(x, b.Not(y))) },
		func(x, y *big.Int) *big.Int { return x },
		func(b *Builder, x, y, got *Term) bool { return got == x }},
	{"and-factor-swapped", func(b *Builder, x, y *Term) *Term { return b.And(b.Or(y, x), b.Or(b.Not(y), x)) },
		func(x, y *big.Int) *big.Int { return x },
		func(b *Builder, x, y, got *Term) bool { return got == x }},
	{"and-factor-assoc", func(b *Builder, x, y *Term) *Term {
		return b.And(b.And(b.Xor(x, y), b.Or(x, y)), b.Or(x, b.Not(y)))
	},
		func(x, y *big.Int) *big.Int { return new(big.Int).And(new(big.Int).Xor(x, y), x) },
		func(b *Builder, x, y, got *Term) bool { return got == b.And(b.Xor(x, y), x) }},

	// Double negation.
	{"not-not", func(b *Builder, x, y *Term) *Term { return b.Not(b.Not(x)) },
		func(x, y *big.Int) *big.Int { return x },
		func(b *Builder, x, y, got *Term) bool { return got == x }},
	{"neg-neg", func(b *Builder, x, y *Term) *Term { return b.Neg(b.Neg(x)) },
		func(x, y *big.Int) *big.Int { return x },
		func(b *Builder, x, y, got *Term) bool { return got == x }},
	{"neg-sub", func(b *Builder, x, y *Term) *Term { return b.Neg(b.Sub(x, y)) },
		func(x, y *big.Int) *big.Int { return refBinary(OpSub, ruleWidth, y, x) },
		func(b *Builder, x, y, got *Term) bool {
			// Sub interns in add-normal form, so -(x - y) normalizes to
			// y + (-x) through the neg-of-add-chain rule.
			return got.op == OpAdd && got.args[0] == y &&
				got.args[1].op == OpNeg && got.args[1].args[0] == x
		}},

	// Add/sub chain folding.
	{"add-zero", func(b *Builder, x, y *Term) *Term { return b.Add(x, b.ConstInt64(0, ruleWidth)) },
		func(x, y *big.Int) *big.Int { return x },
		func(b *Builder, x, y, got *Term) bool { return got == x }},
	{"add-chain", func(b *Builder, x, y *Term) *Term {
		return b.Add(b.Add(x, b.ConstInt64(5, ruleWidth)), b.ConstInt64(7, ruleWidth))
	},
		func(x, y *big.Int) *big.Int { return refBinary(OpAdd, ruleWidth, x, big.NewInt(12)) },
		func(b *Builder, x, y, got *Term) bool {
			return got.op == OpAdd && got.args[0] == x && isConstVal(got.args[1], 12)
		}},
	{"sub-as-add", func(b *Builder, x, y *Term) *Term { return b.Sub(x, b.ConstInt64(5, ruleWidth)) },
		func(x, y *big.Int) *big.Int { return refBinary(OpSub, ruleWidth, x, big.NewInt(5)) },
		func(b *Builder, x, y, got *Term) bool {
			return got.op == OpAdd && got.args[0] == x && isConstVal(got.args[1], -5)
		}},
	{"sub-add-chain", func(b *Builder, x, y *Term) *Term {
		return b.Add(b.Sub(x, b.ConstInt64(3, ruleWidth)), b.ConstInt64(10, ruleWidth))
	},
		func(x, y *big.Int) *big.Int { return refBinary(OpAdd, ruleWidth, x, big.NewInt(7)) },
		func(b *Builder, x, y, got *Term) bool {
			return got.op == OpAdd && got.args[0] == x && isConstVal(got.args[1], 7)
		}},
	{"sub-zero", func(b *Builder, x, y *Term) *Term { return b.Sub(x, b.ConstInt64(0, ruleWidth)) },
		func(x, y *big.Int) *big.Int { return x },
		func(b *Builder, x, y, got *Term) bool { return got == x }},
	{"sub-self", func(b *Builder, x, y *Term) *Term { return b.Sub(x, x) },
		func(x, y *big.Int) *big.Int { return big.NewInt(0) },
		func(b *Builder, x, y, got *Term) bool { return isConstVal(got, 0) }},
	{"zero-sub", func(b *Builder, x, y *Term) *Term { return b.Sub(b.ConstInt64(0, ruleWidth), x) },
		func(x, y *big.Int) *big.Int { return refBinary(OpSub, ruleWidth, big.NewInt(0), x) },
		func(b *Builder, x, y, got *Term) bool { return got.op == OpNeg && got.args[0] == x }},
	{"sub-nonconst", func(b *Builder, x, y *Term) *Term { return b.Sub(x, y) },
		func(x, y *big.Int) *big.Int { return refBinary(OpSub, ruleWidth, x, y) },
		func(b *Builder, x, y, got *Term) bool {
			// a - b normalizes to a + (-b) so subtraction shares the
			// add-chain node space.
			return got.op == OpAdd && got.args[0] == x &&
				got.args[1].op == OpNeg && got.args[1].args[0] == y
		}},
	{"sub-nonconst-shares-add", func(b *Builder, x, y *Term) *Term {
		sub := b.Sub(x, y)
		if sub != b.Add(x, b.Neg(y)) {
			// The two spellings must intern to the same node; returning
			// a distinct term here would fail the shape check below.
			return b.Const(big.NewInt(0), ruleWidth)
		}
		return sub
	},
		func(x, y *big.Int) *big.Int { return refBinary(OpSub, ruleWidth, x, y) },
		func(b *Builder, x, y, got *Term) bool { return got.op == OpAdd }},
	{"sub-neg-roundtrip", func(b *Builder, x, y *Term) *Term { return b.Sub(x, b.Neg(y)) },
		func(x, y *big.Int) *big.Int {
			return refBinary(OpAdd, ruleWidth, x, y) // x - (-y) = x + y
		},
		func(b *Builder, x, y, got *Term) bool {
			return got.op == OpAdd && got.args[0] == x && got.args[1] == y
		}},
	{"addchain-diff", func(b *Builder, x, y *Term) *Term {
		// (x + 9) - (x + 2) = 7 via the shared add-chain base.
		return b.Sub(b.Add(x, b.ConstInt64(9, ruleWidth)), b.Add(x, b.ConstInt64(2, ruleWidth)))
	},
		func(x, y *big.Int) *big.Int {
			return refBinary(OpSub, ruleWidth,
				refBinary(OpAdd, ruleWidth, x, big.NewInt(9)),
				refBinary(OpAdd, ruleWidth, x, big.NewInt(2)))
		},
		func(b *Builder, x, y, got *Term) bool { return isConstVal(got, 7) }},
	{"addchain-diff-bare-right", func(b *Builder, x, y *Term) *Term {
		// (x + 5) - x = 5: the bare side splits with offset 0.
		return b.Sub(b.Add(x, b.ConstInt64(5, ruleWidth)), x)
	},
		func(x, y *big.Int) *big.Int {
			return refBinary(OpSub, ruleWidth, refBinary(OpAdd, ruleWidth, x, big.NewInt(5)), x)
		},
		func(b *Builder, x, y, got *Term) bool { return isConstVal(got, 5) }},
	{"addchain-diff-bare-left", func(b *Builder, x, y *Term) *Term {
		// x - (x + 5) = -5.
		return b.Sub(x, b.Add(x, b.ConstInt64(5, ruleWidth)))
	},
		func(x, y *big.Int) *big.Int {
			return refBinary(OpSub, ruleWidth, x, refBinary(OpAdd, ruleWidth, x, big.NewInt(5)))
		},
		func(b *Builder, x, y, got *Term) bool { return isConstVal(got, -5) }},
	{"addchain-diff-wrap", func(b *Builder, x, y *Term) *Term {
		// Offsets that wrap at the width still fold exactly:
		// (x + 250) - (x + 3) = 247 mod 256.
		return b.Sub(b.Add(x, b.ConstInt64(250, ruleWidth)), b.Add(x, b.ConstInt64(3, ruleWidth)))
	},
		func(x, y *big.Int) *big.Int {
			return refBinary(OpSub, ruleWidth,
				refBinary(OpAdd, ruleWidth, x, big.NewInt(250)),
				refBinary(OpAdd, ruleWidth, x, big.NewInt(3)))
		},
		func(b *Builder, x, y, got *Term) bool { return isConstVal(got, 247) }},
	{"addchain-diff-neg-add", func(b *Builder, x, y *Term) *Term {
		// The same difference spelled with explicit Add/Neg nodes:
		// (x + 9) + (-(x + 2)) = 7.
		return b.Add(b.Add(x, b.ConstInt64(9, ruleWidth)), b.Neg(b.Add(x, b.ConstInt64(2, ruleWidth))))
	},
		func(x, y *big.Int) *big.Int {
			neg := new(big.Int).Neg(refBinary(OpAdd, ruleWidth, x, big.NewInt(2)))
			return refBinary(OpAdd, ruleWidth, refBinary(OpAdd, ruleWidth, x, big.NewInt(9)),
				neg.And(neg.Add(neg, new(big.Int).Lsh(big.NewInt(1), ruleWidth)), mask(ruleWidth)))
		},
		func(b *Builder, x, y, got *Term) bool { return isConstVal(got, 7) }},
	{"addchain-diff-neg-left", func(b *Builder, x, y *Term) *Term {
		// Mirror image: (-(x + 2)) + (x + 9) = 7.
		return b.Add(b.Neg(b.Add(x, b.ConstInt64(2, ruleWidth))), b.Add(x, b.ConstInt64(9, ruleWidth)))
	},
		func(x, y *big.Int) *big.Int {
			neg := new(big.Int).Neg(refBinary(OpAdd, ruleWidth, x, big.NewInt(2)))
			return refBinary(OpAdd, ruleWidth,
				neg.And(neg.Add(neg, new(big.Int).Lsh(big.NewInt(1), ruleWidth)), mask(ruleWidth)),
				refBinary(OpAdd, ruleWidth, x, big.NewInt(9)))
		},
		func(b *Builder, x, y, got *Term) bool { return isConstVal(got, 7) }},

	// Multiplicative / shift identities.
	{"mul-zero", func(b *Builder, x, y *Term) *Term { return b.Mul(x, b.ConstInt64(0, ruleWidth)) },
		func(x, y *big.Int) *big.Int { return big.NewInt(0) },
		func(b *Builder, x, y, got *Term) bool { return isConstVal(got, 0) }},
	{"mul-one", func(b *Builder, x, y *Term) *Term { return b.Mul(x, b.ConstInt64(1, ruleWidth)) },
		func(x, y *big.Int) *big.Int { return x },
		func(b *Builder, x, y, got *Term) bool { return got == x }},
	{"udiv-one", func(b *Builder, x, y *Term) *Term { return b.UDiv(x, b.ConstInt64(1, ruleWidth)) },
		func(x, y *big.Int) *big.Int { return x },
		func(b *Builder, x, y, got *Term) bool { return got == x }},
	{"urem-one", func(b *Builder, x, y *Term) *Term { return b.URem(x, b.ConstInt64(1, ruleWidth)) },
		func(x, y *big.Int) *big.Int { return big.NewInt(0) },
		func(b *Builder, x, y, got *Term) bool { return isConstVal(got, 0) }},
	{"shl-zero", func(b *Builder, x, y *Term) *Term { return b.Shl(x, b.ConstInt64(0, ruleWidth)) },
		func(x, y *big.Int) *big.Int { return x },
		func(b *Builder, x, y, got *Term) bool { return got == x }},
	{"shl-oversized", func(b *Builder, x, y *Term) *Term { return b.Shl(x, b.ConstInt64(ruleWidth, ruleWidth)) },
		func(x, y *big.Int) *big.Int { return big.NewInt(0) },
		func(b *Builder, x, y, got *Term) bool { return isConstVal(got, 0) }},
	{"lshr-oversized", func(b *Builder, x, y *Term) *Term { return b.LShr(x, b.ConstInt64(200, ruleWidth)) },
		func(x, y *big.Int) *big.Int { return big.NewInt(0) },
		func(b *Builder, x, y, got *Term) bool { return isConstVal(got, 0) }},
	{"ashr-zero", func(b *Builder, x, y *Term) *Term { return b.AShr(x, b.ConstInt64(0, ruleWidth)) },
		func(x, y *big.Int) *big.Int { return x },
		func(b *Builder, x, y, got *Term) bool { return got == x }},

	// Comparisons decided without the solver.
	{"eq-self", func(b *Builder, x, y *Term) *Term { return b.Eq(x, x) },
		func(x, y *big.Int) *big.Int { return big.NewInt(1) },
		func(b *Builder, x, y, got *Term) bool { return got.IsConstBool(true) }},
	{"ule-zero-left", func(b *Builder, x, y *Term) *Term { return b.ULE(b.ConstInt64(0, ruleWidth), x) },
		func(x, y *big.Int) *big.Int { return big.NewInt(1) },
		func(b *Builder, x, y, got *Term) bool { return got.IsConstBool(true) }},
	{"ule-allones-right", func(b *Builder, x, y *Term) *Term { return b.ULE(x, b.ConstInt64(-1, ruleWidth)) },
		func(x, y *big.Int) *big.Int { return big.NewInt(1) },
		func(b *Builder, x, y, got *Term) bool { return got.IsConstBool(true) }},
	{"ule-zero-right", func(b *Builder, x, y *Term) *Term { return b.ULE(x, b.ConstInt64(0, ruleWidth)) },
		func(x, y *big.Int) *big.Int { return refBinary(OpEq, ruleWidth, x, big.NewInt(0)) },
		func(b *Builder, x, y, got *Term) bool { return got.op == OpEq }},
	{"ult-zero", func(b *Builder, x, y *Term) *Term { return b.ULT(x, b.ConstInt64(0, ruleWidth)) },
		func(x, y *big.Int) *big.Int { return big.NewInt(0) },
		func(b *Builder, x, y, got *Term) bool { return got.IsConstBool(false) }},
	{"ult-allones-left", func(b *Builder, x, y *Term) *Term { return b.ULT(b.ConstInt64(-1, ruleWidth), x) },
		func(x, y *big.Int) *big.Int { return big.NewInt(0) },
		func(b *Builder, x, y, got *Term) bool { return got.IsConstBool(false) }},
	{"sle-intmax", func(b *Builder, x, y *Term) *Term { return b.SLE(x, b.Const(smax(ruleWidth), ruleWidth)) },
		func(x, y *big.Int) *big.Int { return big.NewInt(1) },
		func(b *Builder, x, y, got *Term) bool { return got.IsConstBool(true) }},
	{"sle-intmin-left", func(b *Builder, x, y *Term) *Term { return b.SLE(b.Const(smin(ruleWidth), ruleWidth), x) },
		func(x, y *big.Int) *big.Int { return big.NewInt(1) },
		func(b *Builder, x, y, got *Term) bool { return got.IsConstBool(true) }},
	{"slt-intmin", func(b *Builder, x, y *Term) *Term { return b.SLT(x, b.Const(smin(ruleWidth), ruleWidth)) },
		func(x, y *big.Int) *big.Int { return big.NewInt(0) },
		func(b *Builder, x, y, got *Term) bool { return got.IsConstBool(false) }},
	{"slt-intmax-left", func(b *Builder, x, y *Term) *Term { return b.SLT(b.Const(smax(ruleWidth), ruleWidth), x) },
		func(x, y *big.Int) *big.Int { return big.NewInt(0) },
		func(b *Builder, x, y, got *Term) bool { return got.IsConstBool(false) }},

	// Boolean-width equality and ITE normal forms.
	{"eq-bool-true", func(b *Builder, x, y *Term) *Term {
		c := b.Eq(x, y)
		return b.Eq(c, b.Bool(true))
	},
		func(x, y *big.Int) *big.Int { return refBinary(OpEq, ruleWidth, x, y) },
		func(b *Builder, x, y, got *Term) bool { return got == b.Eq(x, y) }},
	{"eq-bool-false", func(b *Builder, x, y *Term) *Term {
		c := b.Eq(x, y)
		return b.Eq(c, b.Bool(false))
	},
		func(x, y *big.Int) *big.Int {
			return new(big.Int).Xor(refBinary(OpEq, ruleWidth, x, y), big.NewInt(1))
		},
		func(b *Builder, x, y, got *Term) bool { return got.op == OpNot }},
	{"ite-const-cond", func(b *Builder, x, y *Term) *Term { return b.ITE(b.Bool(true), x, y) },
		func(x, y *big.Int) *big.Int { return x },
		func(b *Builder, x, y, got *Term) bool { return got == x }},
	{"ite-same-arms", func(b *Builder, x, y *Term) *Term { return b.ITE(b.Eq(x, y), x, x) },
		func(x, y *big.Int) *big.Int { return x },
		func(b *Builder, x, y, got *Term) bool { return got == x }},
	{"ite-bool-select", func(b *Builder, x, y *Term) *Term {
		return b.ITE(b.ULT(x, y), b.Bool(true), b.Bool(false))
	},
		func(x, y *big.Int) *big.Int { return refBinary(OpULT, ruleWidth, x, y) },
		func(b *Builder, x, y, got *Term) bool { return got == b.ULT(x, y) }},
	{"ite-bool-invert", func(b *Builder, x, y *Term) *Term {
		return b.ITE(b.ULT(x, y), b.Bool(false), b.Bool(true))
	},
		func(x, y *big.Int) *big.Int {
			return new(big.Int).Xor(refBinary(OpULT, ruleWidth, x, y), big.NewInt(1))
		},
		func(b *Builder, x, y, got *Term) bool { return got.op == OpNot || got.op == OpULE }},
	{"ite-not-cond", func(b *Builder, x, y *Term) *Term { return b.ITE(b.Not(b.Eq(x, y)), x, y) },
		func(x, y *big.Int) *big.Int {
			if x.Cmp(y) != 0 {
				return x
			}
			return y
		},
		func(b *Builder, x, y, got *Term) bool {
			return got.op == OpITE && got.args[0].op != OpNot
		}},

	// Extraction composition. The composed range [7:4] lies entirely in
	// the low half of the concat, so after the extracts merge the
	// extract-over-concat rule strips the concat as well.
	{"extract-extract", func(b *Builder, x, y *Term) *Term {
		return b.Extract(b.Extract(b.Concat(x, y), 11, 2), 5, 2)
	},
		func(x, y *big.Int) *big.Int {
			cat := new(big.Int).Or(new(big.Int).Lsh(x, ruleWidth), y)
			return new(big.Int).And(new(big.Int).Rsh(cat, 4), mask(4))
		},
		func(b *Builder, x, y, got *Term) bool {
			return got.op == OpExtract && got.args[0] == y && got.lo == 4
		}},
	{"extract-concat-low", func(b *Builder, x, y *Term) *Term {
		return b.Extract(b.Concat(x, y), 5, 2)
	},
		func(x, y *big.Int) *big.Int { return new(big.Int).And(new(big.Int).Rsh(y, 2), mask(4)) },
		func(b *Builder, x, y, got *Term) bool {
			return got.op == OpExtract && got.args[0] == y && got.lo == 2
		}},
	{"extract-concat-high", func(b *Builder, x, y *Term) *Term {
		return b.Extract(b.Concat(x, y), 13, 9)
	},
		func(x, y *big.Int) *big.Int { return new(big.Int).And(new(big.Int).Rsh(x, 1), mask(5)) },
		func(b *Builder, x, y, got *Term) bool {
			return got.op == OpExtract && got.args[0] == x && got.lo == 1
		}},

	// Shift-of-shift folding.
	{"shl-shl", func(b *Builder, x, y *Term) *Term {
		return b.Shl(b.Shl(x, b.ConstInt64(2, ruleWidth)), b.ConstInt64(3, ruleWidth))
	},
		func(x, y *big.Int) *big.Int {
			return refBinary(OpShl, ruleWidth, refBinary(OpShl, ruleWidth, x, big.NewInt(2)), big.NewInt(3))
		},
		func(b *Builder, x, y, got *Term) bool {
			return got.op == OpShl && got.args[0] == x && isConstVal(got.args[1], 5)
		}},
	{"lshr-lshr-oversized", func(b *Builder, x, y *Term) *Term {
		return b.LShr(b.LShr(x, b.ConstInt64(5, ruleWidth)), b.ConstInt64(4, ruleWidth))
	},
		func(x, y *big.Int) *big.Int { return big.NewInt(0) },
		func(b *Builder, x, y, got *Term) bool { return isConstVal(got, 0) }},
	{"ashr-ashr", func(b *Builder, x, y *Term) *Term {
		return b.AShr(b.AShr(x, b.ConstInt64(3, ruleWidth)), b.ConstInt64(4, ruleWidth))
	},
		func(x, y *big.Int) *big.Int {
			return refBinary(OpAShr, ruleWidth, refBinary(OpAShr, ruleWidth, x, big.NewInt(3)), big.NewInt(4))
		},
		func(b *Builder, x, y, got *Term) bool {
			return got.op == OpAShr && got.args[0] == x && isConstVal(got.args[1], 7)
		}},
	{"ashr-ashr-clamped", func(b *Builder, x, y *Term) *Term {
		return b.AShr(b.AShr(x, b.ConstInt64(6, ruleWidth)), b.ConstInt64(7, ruleWidth))
	},
		func(x, y *big.Int) *big.Int {
			return refBinary(OpAShr, ruleWidth, refBinary(OpAShr, ruleWidth, x, big.NewInt(6)), big.NewInt(7))
		},
		func(b *Builder, x, y, got *Term) bool {
			return got.op == OpAShr && got.args[0] == x && isConstVal(got.args[1], int64(ruleWidth))
		}},
}

func TestRewriteRules(t *testing.T) {
	rng := rand.New(rand.NewSource(20130324))
	for _, rt := range ruleTests {
		t.Run(rt.name, func(t *testing.T) {
			b := NewBuilder()
			x := b.Var("x", ruleWidth)
			y := b.Var("y", ruleWidth)
			before := b.RewriteHits
			got := rt.build(b, x, y)
			if b.RewriteHits == before {
				t.Errorf("rule did not register a rewrite hit")
			}
			if !rt.shape(b, x, y, got) {
				t.Errorf("unexpected normal form: %s", got)
			}
			// Concrete semantics on random inputs: the rewritten term
			// must agree with the reference meaning of the expression.
			for i := 0; i < 200; i++ {
				xv := big.NewInt(int64(rng.Intn(1 << ruleWidth)))
				yv := big.NewInt(int64(rng.Intn(1 << ruleWidth)))
				env := map[string]*big.Int{"x": xv, "y": yv}
				want := new(big.Int).And(rt.ref(xv, yv), mask(got.width))
				if have := evalTerm(got, env); have.Cmp(want) != 0 {
					t.Fatalf("x=%v y=%v: rewritten term = %v, reference = %v (term %s)",
						xv, yv, have, want, got)
				}
			}
		})
	}
}

// TestRewriteSoundnessRandom cross-checks the whole rewrite engine: it
// builds random binary expressions over operand shapes chosen to
// trigger the rules (variables, constants, negations, constant
// add-chains) and verifies the constructed term evaluates exactly like
// the unrewritten operation for every sampled assignment. It runs at 8
// bits, where constant folds take the evaluator's uint64 path, and at
// 96, where they take its math/big path.
func TestRewriteSoundnessRandom(t *testing.T) {
	for _, w := range []int{8, 96} {
		t.Run(fmt.Sprintf("w%d", w), func(t *testing.T) { rewriteSoundnessRandom(t, w) })
	}
}

// randValue draws a w-bit value. Up to 62 bits it is uniform; wider,
// it is a small value (such as an in-range shift amount), all ones
// less a small value, or uniform, so that edge cases still turn up.
func randValue(rng *rand.Rand, w int) *big.Int {
	if w <= 62 {
		return big.NewInt(int64(rng.Intn(1 << w)))
	}
	small := big.NewInt(int64(rng.Intn(2 * w)))
	switch rng.Intn(4) {
	case 0:
		return small
	case 1:
		return small.Sub(mask(w), small)
	}
	v := new(big.Int)
	for i := 0; i < w; i += 64 {
		v.Lsh(v, 64).Or(v, new(big.Int).SetUint64(rng.Uint64()))
	}
	return v.And(v, mask(w))
}

func rewriteSoundnessRandom(t *testing.T, w int) {
	ops := []Op{OpAnd, OpOr, OpXor, OpAdd, OpSub, OpMul, OpUDiv, OpURem,
		OpSDiv, OpSRem, OpShl, OpLShr, OpAShr, OpEq, OpULT, OpULE, OpSLT, OpSLE}
	rng := rand.New(rand.NewSource(1))
	b := NewBuilder()
	x := b.Var("x", w)
	y := b.Var("y", w)
	operand := func() *Term {
		switch rng.Intn(6) {
		case 0:
			return x
		case 1:
			return y
		case 2:
			return b.Const(randValue(rng, w), w)
		case 3:
			return b.Not(x)
		case 4:
			return b.Add(x, b.Const(randValue(rng, w), w))
		default:
			return b.Sub(y, b.Const(randValue(rng, w), w))
		}
	}
	apply := func(op Op, u, v *Term) *Term {
		switch op {
		case OpAnd:
			return b.And(u, v)
		case OpOr:
			return b.Or(u, v)
		case OpXor:
			return b.Xor(u, v)
		case OpAdd:
			return b.Add(u, v)
		case OpSub:
			return b.Sub(u, v)
		case OpMul:
			return b.Mul(u, v)
		case OpUDiv:
			return b.UDiv(u, v)
		case OpURem:
			return b.URem(u, v)
		case OpSDiv:
			return b.SDiv(u, v)
		case OpSRem:
			return b.SRem(u, v)
		case OpShl:
			return b.Shl(u, v)
		case OpLShr:
			return b.LShr(u, v)
		case OpAShr:
			return b.AShr(u, v)
		case OpEq:
			return b.Eq(u, v)
		case OpULT:
			return b.ULT(u, v)
		case OpULE:
			return b.ULE(u, v)
		case OpSLT:
			return b.SLT(u, v)
		case OpSLE:
			return b.SLE(u, v)
		}
		panic("unreachable")
	}
	for iter := 0; iter < 500; iter++ {
		for _, op := range ops {
			u, v := operand(), operand()
			got := apply(op, u, v)
			env := map[string]*big.Int{"x": randValue(rng, w), "y": randValue(rng, w)}
			want := refBinary(op, w, evalTerm(u, env), evalTerm(v, env))
			if have := evalTerm(got, env); have.Cmp(want) != 0 {
				t.Fatalf("%v(%s, %s) rewrote unsoundly: env=%v got=%v want=%v (term %s)",
					op, u, v, env, have, want, got)
			}
		}
	}
	if b.RewriteHits == 0 {
		t.Error("random construction triggered no rewrites")
	}
}

// TestSolverConstFastPath: queries whose assumptions fold to constants
// are answered without touching the SAT core.
func TestSolverConstFastPath(t *testing.T) {
	b := NewBuilder()
	s := NewSession(b, nil)
	x := b.Var("x", 8)
	vars0, clauses0 := satSize(newSolver(b))

	// x <u 0 folds to false: Unsat with no SAT work.
	if got := s.Solve(b.ULT(x, b.ConstInt64(0, 8))); got != Unsat {
		t.Fatalf("const-false assumption: %v, want unsat", got)
	}
	// 0 <=u x folds to true: Sat with no SAT work.
	if got := s.Solve(b.ULE(b.ConstInt64(0, 8), x)); got != Sat {
		t.Fatalf("const-true assumption: %v, want sat", got)
	}
	if s.FastPaths != 2 {
		t.Errorf("FastPaths = %d, want 2", s.FastPaths)
	}
	if vars, clauses := satSize(s.inc); vars != vars0 || clauses != clauses0 {
		t.Errorf("SAT instance grew (%d→%d vars, %d→%d clauses) on constant queries",
			vars0, vars, clauses0, clauses)
	}

	// SolveCore must identify the constant-false assumption as the core.
	tru := b.Eq(x, x)
	fls := b.ULT(x, b.ConstInt64(0, 8))
	res, core := s.SolveCore(tru, fls)
	if res != Unsat || len(core) != 1 || core[0] != 1 {
		t.Errorf("SolveCore = %v %v, want unsat with core [1]", res, core)
	}

	// A real (non-constant) query must still reach the SAT core.
	if got := s.Solve(b.Eq(x, b.ConstInt64(3, 8))); got != Sat {
		t.Fatalf("x = 3: %v, want sat", got)
	}
	if v := s.Value(x).Int64(); v != 3 {
		t.Errorf("model x = %d, want 3", v)
	}
}
