package bv

import (
	"math"
	"math/big"
	"testing"
)

// TestConstOneTermPerValue: a constant is one term per width and value
// modulo 2^width, however the value is written. Const and ConstInt64
// agree, negative values wrap in two's complement, and values of 2^64
// or more are reduced, on both sides of the 64-bit boundary where the
// builder keys a constant by its low word alone.
func TestConstOneTermPerValue(t *testing.T) {
	ints := []int64{0, 1, -1, 2, -2, 127, -128, 255, 1 << 31, -1 << 31,
		1<<32 + 7, 1<<62 + 3, math.MaxInt64, math.MinInt64}
	for _, w := range []int{1, 8, 32, 63, 64, 65, 66} {
		b := NewBuilder()
		mod := new(big.Int).Lsh(big.NewInt(1), uint(w))
		distinct := map[string]*Term{}
		for _, v := range ints {
			want := new(big.Int).Mod(big.NewInt(v), mod)
			term := b.ConstInt64(v, w)
			if term.ConstValue().Cmp(want) != 0 {
				t.Fatalf("w=%d: ConstInt64(%d) = %v, want %v", w, v, term.ConstValue(), want)
			}
			// The same residue written as itself, shifted by multiples
			// of 2^w large enough to pass 2^64 (or -2^64), and as the
			// original int64 through Const.
			big64 := new(big.Int).Lsh(mod, 64)
			for _, alt := range []*big.Int{
				big.NewInt(v),
				want,
				new(big.Int).Add(want, mod),
				new(big.Int).Sub(want, mod),
				new(big.Int).Add(want, big64),
				new(big.Int).Sub(want, big64),
			} {
				if got := b.Const(alt, w); got != term {
					t.Fatalf("w=%d: Const(%v) is term %d %v, ConstInt64(%d) is term %d %v",
						w, alt, got.ID(), got.ConstValue(), v, term.ID(), term.ConstValue())
				}
			}
			if prev, ok := distinct[want.String()]; ok && prev != term {
				t.Fatalf("w=%d: value %v interned twice", w, want)
			}
			distinct[want.String()] = term
		}
		// Values that differ only above bit 63 are different constants
		// wherever the width keeps those bits.
		hi := new(big.Int).Lsh(big.NewInt(1), 64)
		same := b.Const(hi, w) == b.ConstInt64(0, w)
		if same != (w <= 64) {
			t.Fatalf("w=%d: Const(2^64) == Const(0) is %v", w, same)
		}
		created := len(distinct)
		if w > 64 {
			created++ // 2^64 itself
		}
		if b.TermsCreated != created {
			t.Fatalf("w=%d: %d terms created for %d distinct values", w, b.TermsCreated, created)
		}
	}
}

// TestConstHitAllocatesNothing: looking up an existing constant up to
// 64 bits wide allocates nothing, from an int64 or from a big.Int.
func TestConstHitAllocatesNothing(t *testing.T) {
	b := NewBuilder()
	neg := big.NewInt(-7)
	for _, w := range []int{1, 8, 32, 64} {
		b.ConstInt64(-7, w)
		if n := testing.AllocsPerRun(100, func() { b.ConstInt64(-7, w) }); n != 0 {
			t.Errorf("w=%d: ConstInt64 hit made %v allocations, want 0", w, n)
		}
		if n := testing.AllocsPerRun(100, func() { b.Const(neg, w) }); n != 0 {
			t.Errorf("w=%d: Const hit made %v allocations, want 0", w, n)
		}
	}
}
