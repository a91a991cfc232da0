package bv

import (
	"math/rand"
	"testing"
)

// TestCanonPermutationsIntern: every construction order of an AC
// operand multiset interns to the same hash-consed node. This is the
// dedup property the blast layer banks on — one node means one
// circuit, one SAT encoding, one cache entry.
func TestCanonPermutationsIntern(t *testing.T) {
	ops := []struct {
		name  string
		apply func(b *Builder, x, y *Term) *Term
	}{
		{"add", (*Builder).Add},
		{"and", (*Builder).And},
		{"or", (*Builder).Or},
		{"xor", (*Builder).Xor},
		{"mul", (*Builder).Mul},
	}
	for _, op := range ops {
		t.Run(op.name, func(t *testing.T) {
			b := NewBuilder()
			vs := []*Term{
				b.Var("a", 16), b.Var("b", 16), b.Var("c", 16), b.Var("d", 16),
			}
			fold := func(order []int) *Term {
				acc := vs[order[0]]
				for _, i := range order[1:] {
					acc = op.apply(b, acc, vs[i])
				}
				return acc
			}
			want := fold([]int{0, 1, 2, 3})
			perms := [][]int{
				{3, 2, 1, 0}, {1, 3, 0, 2}, {2, 0, 3, 1}, {0, 2, 1, 3},
			}
			for _, p := range perms {
				if got := fold(p); got != want {
					t.Errorf("order %v interned a distinct node", p)
				}
			}
			// Right-nested association too: a ⊕ (b ⊕ (c ⊕ d)).
			rn := op.apply(b, vs[0], op.apply(b, vs[1], op.apply(b, vs[2], vs[3])))
			if rn != want {
				t.Errorf("right-nested association interned a distinct node")
			}
		})
	}
}

// TestCanonConstFold: constants scattered through an AC chain fold
// into a single constant at the top-level right argument — the
// position addChainSplit and the pairwise constant rules inspect.
func TestCanonConstFold(t *testing.T) {
	b := NewBuilder()
	x := b.Var("x", 8)
	y := b.Var("y", 8)

	// (3 + x) + (y + 5) = (x + y) + 8
	got := b.Add(b.Add(b.ConstInt64(3, 8), x), b.Add(y, b.ConstInt64(5, 8)))
	if got.op != OpAdd || !isConstWith(got.args[1], 8) {
		t.Errorf("add chain: got %v, want (x+y)+8 with const at args[1]", got)
	}
	if got.args[0] != b.Add(x, y) {
		t.Errorf("add chain base is not the canonical x+y node")
	}

	// (x & 0x0F) & (y & 0xF3) = (x & y) & 0x03
	gotAnd := b.And(b.And(x, b.ConstInt64(0x0F, 8)), b.And(y, b.ConstInt64(0xF3, 8)))
	if gotAnd.op != OpAnd || !isConstWith(gotAnd.args[1], 0x03) {
		t.Errorf("and chain: got %v, want (x&y)&0x03", gotAnd)
	}

	// Absorbing element kills the chain: (x | 0xF0) | (y | 0x0F) = ~0.
	gotOr := b.Or(b.Or(x, b.ConstInt64(0xF0, 8)), b.Or(y, b.ConstInt64(0x0F, 8)))
	if !isConstWith(gotOr, 0xFF) {
		t.Errorf("or chain with absorbing fold: got %v, want 0xFF", gotOr)
	}

	// Identity element drops out: (x ^ 5) ^ (y ^ 5) = x ^ y.
	gotXor := b.Xor(b.Xor(x, b.ConstInt64(5, 8)), b.Xor(y, b.ConstInt64(5, 8)))
	if gotXor != b.Xor(x, y) {
		t.Errorf("xor chain with cancelling consts: got %v, want x^y", gotXor)
	}
}

// TestCanonDuplicateLeaves: duplicate operands collapse under
// idempotent ops, cancel pairwise under xor, and are preserved under
// add/mul — independent of construction order.
func TestCanonDuplicateLeaves(t *testing.T) {
	b := NewBuilder()
	x := b.Var("x", 8)
	y := b.Var("y", 8)

	if got := b.And(b.And(x, y), x); got != b.And(x, y) {
		t.Errorf("and duplicate: got %v, want x&y", got)
	}
	if got := b.Or(b.Or(y, x), b.Or(x, y)); got != b.Or(x, y) {
		t.Errorf("or duplicate across chains: got %v, want x|y", got)
	}
	if got := b.Xor(b.Xor(x, y), x); got != y {
		t.Errorf("xor pair cancellation: got %v, want y", got)
	}
	if got := b.Xor(b.Xor(x, y), b.Xor(x, y)); !isConstWith(got, 0) {
		t.Errorf("xor full cancellation: got %v, want 0", got)
	}
	// add keeps multiplicity: (x+y)+x must NOT collapse to x+y.
	if got := b.Add(b.Add(x, y), x); got == b.Add(x, y) {
		t.Errorf("add duplicate wrongly collapsed")
	}
}

// TestCanonDedupsChainHeavyCorpus is the acceptance check for the
// canonicalization tentpole: on a corpus of permuted chains the
// canonicalizing builder shows strictly more cache hits and strictly
// fewer created terms than the NoRewrite reference, and a session over
// the canonical encoding blasts strictly fewer terms.
func TestCanonDedupsChainHeavyCorpus(t *testing.T) {
	build := func(b *Builder) []*Term {
		rng := rand.New(rand.NewSource(6))
		vs := []*Term{
			b.Var("p", 16), b.Var("q", 16), b.Var("r", 16),
			b.Var("s", 16), b.Var("t", 16),
		}
		var queries []*Term
		for i := 0; i < 40; i++ {
			perm := rng.Perm(len(vs))
			acc := vs[perm[0]]
			for _, j := range perm[1:] {
				switch i % 3 {
				case 0:
					acc = b.Add(acc, vs[j])
				case 1:
					acc = b.And(acc, vs[j])
				default:
					acc = b.Or(acc, vs[j])
				}
			}
			queries = append(queries, b.ULT(acc, b.ConstInt64(int64(1000+i), 16)))
		}
		return queries
	}

	canon, ref := NewBuilder(), NewBuilder()
	ref.NoRewrite = true
	qc, qr := build(canon), build(ref)

	if canon.CacheHits <= ref.CacheHits {
		t.Errorf("CacheHits: canonical %d, reference %d; want strictly more",
			canon.CacheHits, ref.CacheHits)
	}
	if canon.TermsCreated >= ref.TermsCreated {
		t.Errorf("TermsCreated: canonical %d, reference %d; want strictly fewer",
			canon.TermsCreated, ref.TermsCreated)
	}

	// Queries without the witness ring: a session answers most of
	// these from a stored assignment without blasting them, which would
	// hide the encoding difference this test measures.
	sc, sr := NewSession(canon, nil), NewSession(ref, nil)
	for i := range qc {
		rc, _ := solvePlain(sc, false, qc[i])
		rr, _ := solvePlain(sr, false, qr[i])
		if rc != rr {
			t.Fatalf("query %d: canonical=%v reference=%v", i, rc, rr)
		}
	}
	if sc.Blasts() >= sr.Blasts() {
		t.Errorf("terms blasted: canonical %d, reference %d; want strictly fewer",
			sc.Blasts(), sr.Blasts())
	}
}

func isConstWith(t *Term, v int64) bool {
	return t != nil && t.op == OpConst && t.val.Int64() == v
}
