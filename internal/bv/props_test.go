package bv

// Property-based tests of the bit-vector theory: algebraic laws that
// must hold for every operand value, verified by asking the solver to
// find a counterexample (UNSAT = law holds for all 2^w inputs).

import (
	"fmt"
	"testing"
)

// law checks that a width-1 term is valid (its negation is unsat).
func law(t *testing.T, name string, build func(b *Builder, x, y, z *Term) *Term) {
	t.Helper()
	lawAt(t, name, []int{1, 4, 8, 16}, build)
}

// lawSmall is law over widths small enough for multiplication-heavy
// instances (equivalence of two multipliers is SAT-hard at 16 bits).
func lawSmall(t *testing.T, name string, build func(b *Builder, x, y, z *Term) *Term) {
	t.Helper()
	lawAt(t, name, []int{1, 4, 6}, build)
}

func lawAt(t *testing.T, name string, widths []int, build func(b *Builder, x, y, z *Term) *Term) {
	t.Helper()
	for _, w := range widths {
		b := NewBuilder()
		s := NewSession(b, nil)
		x := b.Var("x", w)
		y := b.Var("y", w)
		z := b.Var("z", w)
		prop := build(b, x, y, z)
		if got := s.Solve(b.Not(prop)); got != Unsat {
			if got == Sat {
				t.Errorf("%s fails at width %d: x=%v y=%v z=%v",
					name, w, s.Value(x), s.Value(y), s.Value(z))
			} else {
				t.Errorf("%s: solver %v at width %d", name, got, w)
			}
		}
	}
}

func TestLawAddCommutative(t *testing.T) {
	law(t, "x+y = y+x", func(b *Builder, x, y, z *Term) *Term {
		return b.Eq(b.Add(x, y), b.Add(y, x))
	})
}

func TestLawAddAssociative(t *testing.T) {
	law(t, "(x+y)+z = x+(y+z)", func(b *Builder, x, y, z *Term) *Term {
		return b.Eq(b.Add(b.Add(x, y), z), b.Add(x, b.Add(y, z)))
	})
}

func TestLawSubIsAddNeg(t *testing.T) {
	law(t, "x-y = x+(-y)", func(b *Builder, x, y, z *Term) *Term {
		return b.Eq(b.Sub(x, y), b.Add(x, b.Neg(y)))
	})
}

func TestLawMulCommutative(t *testing.T) {
	lawSmall(t, "x*y = y*x", func(b *Builder, x, y, z *Term) *Term {
		return b.Eq(b.Mul(x, y), b.Mul(y, x))
	})
}

func TestLawMulDistributes(t *testing.T) {
	lawSmall(t, "x*(y+z) = x*y + x*z", func(b *Builder, x, y, z *Term) *Term {
		return b.Eq(b.Mul(x, b.Add(y, z)), b.Add(b.Mul(x, y), b.Mul(x, z)))
	})
}

func TestLawDeMorgan(t *testing.T) {
	law(t, "~(x&y) = ~x|~y", func(b *Builder, x, y, z *Term) *Term {
		return b.Eq(b.Not(b.And(x, y)), b.Or(b.Not(x), b.Not(y)))
	})
}

func TestLawXorSelfInverse(t *testing.T) {
	law(t, "(x^y)^y = x", func(b *Builder, x, y, z *Term) *Term {
		return b.Eq(b.Xor(b.Xor(x, y), y), x)
	})
}

func TestLawNegNeg(t *testing.T) {
	law(t, "-(-x) = x", func(b *Builder, x, y, z *Term) *Term {
		return b.Eq(b.Neg(b.Neg(x)), x)
	})
}

func TestLawDivRemDecomposition(t *testing.T) {
	// For y != 0: x = (x/y)*y + x%y (unsigned).
	lawSmall(t, "udiv/urem decomposition", func(b *Builder, x, y, z *Term) *Term {
		yNonzero := b.Ne(y, b.ConstInt64(0, y.Width()))
		eq := b.Eq(x, b.Add(b.Mul(b.UDiv(x, y), y), b.URem(x, y)))
		return b.Implies(yNonzero, eq)
	})
}

func TestLawSignedDivRemDecomposition(t *testing.T) {
	lawSmall(t, "sdiv/srem decomposition", func(b *Builder, x, y, z *Term) *Term {
		yNonzero := b.Ne(y, b.ConstInt64(0, y.Width()))
		eq := b.Eq(x, b.Add(b.Mul(b.SDiv(x, y), y), b.SRem(x, y)))
		return b.Implies(yNonzero, eq)
	})
}

func TestLawULTTotalOrder(t *testing.T) {
	law(t, "ult trichotomy", func(b *Builder, x, y, z *Term) *Term {
		return b.OrN(b.ULT(x, y), b.ULT(y, x), b.Eq(x, y))
	})
}

func TestLawSLTAntisymmetric(t *testing.T) {
	law(t, "¬(x<y ∧ y<x)", func(b *Builder, x, y, z *Term) *Term {
		return b.Not(b.And(b.SLT(x, y), b.SLT(y, x)))
	})
}

func TestLawShiftDecomposition(t *testing.T) {
	// (x << 1) = x + x.
	law(t, "x<<1 = x+x", func(b *Builder, x, y, z *Term) *Term {
		one := b.ConstInt64(1, x.Width())
		return b.Eq(b.Shl(x, one), b.Add(x, x))
	})
}

func TestLawLShrShlRoundTrip(t *testing.T) {
	// For width ≥ 2: ((x << 1) >> 1) clears the top bit.
	for _, w := range []int{4, 8} {
		b := NewBuilder()
		s := NewSession(b, nil)
		x := b.Var("x", w)
		one := b.ConstInt64(1, w)
		rt := b.LShr(b.Shl(x, one), one)
		mask := b.ConstInt64(int64(1)<<(uint(w)-1)-1, w)
		prop := b.Eq(rt, b.And(x, mask))
		if got := s.Solve(b.Not(prop)); got != Unsat {
			t.Errorf("width %d: shift round trip law fails (%v)", w, got)
		}
	}
}

func TestLawSExtPreservesSignedOrder(t *testing.T) {
	for _, w := range []int{4, 8} {
		b := NewBuilder()
		s := NewSession(b, nil)
		x := b.Var("x", w)
		y := b.Var("y", w)
		prop := b.Eq(
			b.SLT(x, y),
			b.SLT(b.SExt(x, 2*w), b.SExt(y, 2*w)),
		)
		if got := s.Solve(b.Not(prop)); got != Unsat {
			t.Errorf("width %d: sext order preservation fails (%v)", w, got)
		}
	}
}

func TestLawZExtPreservesUnsignedOrder(t *testing.T) {
	for _, w := range []int{4, 8} {
		b := NewBuilder()
		s := NewSession(b, nil)
		x := b.Var("x", w)
		y := b.Var("y", w)
		prop := b.Eq(
			b.ULT(x, y),
			b.ULT(b.ZExt(x, 2*w), b.ZExt(y, 2*w)),
		)
		if got := s.Solve(b.Not(prop)); got != Unsat {
			t.Errorf("width %d: zext order preservation fails (%v)", w, got)
		}
	}
}

func TestLawITESelect(t *testing.T) {
	law(t, "ite(c,x,x) = x and ite laws", func(b *Builder, x, y, z *Term) *Term {
		c := b.Eq(x, y)
		return b.AndN(
			b.Eq(b.ITE(c, x, x), x),
			b.Eq(b.ITE(b.Bool(true), x, y), x),
			b.Eq(b.ITE(b.Bool(false), x, y), y),
		)
	})
}

// TestUBConditionEncodings verifies the Figure 3 sufficient conditions
// at the theory level: each UB condition is satisfiable (the behavior
// can happen) and its negation rules out exactly the bad inputs.
func TestUBConditionEncodings(t *testing.T) {
	const w = 8
	b := NewBuilder()
	s := NewSession(b, nil)
	x := b.Var("x", w)
	y := b.Var("y", w)

	// Signed add overflow at width 8: x=127, y=1 must satisfy it.
	xe, ye := b.SExt(x, w+1), b.SExt(y, w+1)
	sum := b.Add(xe, ye)
	ovf := b.Or(
		b.SLT(sum, b.ConstInt64(-128, w+1)),
		b.SGT(sum, b.ConstInt64(127, w+1)),
	)
	if got := s.Solve(ovf, b.Eq(x, b.ConstInt64(127, w)), b.Eq(y, b.ConstInt64(1, w))); got != Sat {
		t.Errorf("127+1 must overflow i8: %v", got)
	}
	if got := s.Solve(ovf, b.Eq(x, b.ConstInt64(1, w)), b.Eq(y, b.ConstInt64(1, w))); got != Unsat {
		t.Errorf("1+1 must not overflow i8: %v", got)
	}

	// INT_MIN / -1.
	divUB := b.And(
		b.Eq(x, b.ConstInt64(-128, w)),
		b.Eq(y, b.ConstInt64(-1, w)),
	)
	if got := s.Solve(divUB); got != Sat {
		t.Errorf("INT_MIN/-1 condition unsatisfiable: %v", got)
	}
}

func TestSolverManyQueriesIncremental(t *testing.T) {
	b := NewBuilder()
	s := NewSession(b, nil)
	x := b.Var("x", 16)
	for i := 0; i < 50; i++ {
		c := b.ConstInt64(int64(i), 16)
		want := Sat
		if got := s.Solve(b.Eq(x, c)); got != want {
			t.Fatalf("query %d: %v", i, got)
		}
		if v := s.Value(x).Int64(); v != int64(i) {
			t.Fatalf("query %d: model %d", i, v)
		}
	}
	if s.Queries != 50 {
		t.Fatalf("queries = %d", s.Queries)
	}
}

func TestBuilderStats(t *testing.T) {
	b := NewBuilder()
	x := b.Var("x", 8)
	y := b.Var("y", 8)
	before := b.CacheHits
	b.Add(x, y)
	b.Add(x, y) // hash-cons hit
	if b.CacheHits <= before {
		t.Errorf("expected cache hit on duplicate term")
	}
	if b.TermsCreated == 0 {
		t.Errorf("no terms counted")
	}
}

func TestWidthMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("want panic on width mismatch")
		}
	}()
	b := NewBuilder()
	b.Add(b.Var("a", 8), b.Var("b", 16))
}

func TestExtractBoundsPanic(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("want panic on bad extract")
		}
	}()
	b := NewBuilder()
	b.Extract(b.Var("a", 8), 9, 0)
}

func ExampleSession_Solve() {
	b := NewBuilder()
	s := NewSession(b, nil)
	x := b.Var("x", 8)
	// Is there an x with x + 1 < x (unsigned)? Yes: 255.
	q := b.ULT(b.Add(x, b.ConstInt64(1, 8)), x)
	fmt.Println(s.Solve(q))
	fmt.Println(s.Value(x))
	// Output:
	// sat
	// 255
}
