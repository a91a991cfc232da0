package bv

// Commutative operand-chain canonicalization. The five
// associative-commutative operations (add, and, or, xor, mul) describe
// multisets of operands, but hash consing interns *trees*: without
// normalization (a+b)+c and (c+a)+b produce distinct nodes, two
// bit-blasted adder circuits, and two CDCL problems for one value. The
// STACK workload is full of such chains — pointer arithmetic sums,
// reachability conjunctions, flag disjunctions — built in whatever
// order the frontend happened to visit the operands.
//
// canonChain restores the multiset view: whenever an AC operation is
// constructed and no word-level rewrite rule fired, the combined
// operand chain of both arguments is flattened, its constants folded
// into (at most) one, its variable operands sorted by term ID, and the
// chain rebuilt left-nested with the constant outermost. Every
// construction order of the same multiset then interns to the same
// node, which multiplies Builder.CacheHits, shrinks encodings before
// blasting, and widens the reach of the add-chain rewrite rules (the
// folded constant always sits at args[1], exactly where addChainSplit
// looks).
//
// Soundness is inherited from associativity and commutativity — the
// rebuilt term is a reordering of the same multiset, with constants
// combined by Builder.foldConst, the evaluator's arithmetic that
// evalConstBinary folds with too — and the
// differential and fuzz layers check the combination against the
// rewrite-free reference semantics. Builder.NoRewrite disables
// canonicalization along with the rewrite engine, keeping the
// reference mode a faithful as-constructed interner.

import (
	"cmp"
	"math/big"
	"slices"
)

// maxChainLeaves bounds the flattened chain length canonicalization
// will touch. Longer chains (rare; nothing in the checker approaches
// this) are interned as built — sound, merely uncanonical — keeping
// the rebuild cost linear in a small constant.
const maxChainLeaves = 32

// acCommutative reports whether op is associative-commutative, i.e.
// eligible for chain canonicalization.
func acCommutative(op Op) bool {
	switch op {
	case OpAdd, OpAnd, OpOr, OpXor, OpMul:
		return true
	}
	return false
}

// flattenAC appends the leaves of t's op-chain to dst in encounter
// order, recursing through nested nodes of the same op, and returns
// the extended slice. ok is false when the chain exceeds
// maxChainLeaves. dst goes in and out by value, so a caller's stack
// array can back it without escaping to the heap.
func flattenAC(op Op, t *Term, dst []*Term) (_ []*Term, ok bool) {
	if t.op != op {
		if len(dst) >= maxChainLeaves {
			return dst, false
		}
		return append(dst, t), true
	}
	if dst, ok = flattenAC(op, t.args[0], dst); !ok {
		return dst, false
	}
	return flattenAC(op, t.args[1], dst)
}

// identityConst returns op's identity element at the given width, and
// absorbingConst the element that annihilates the chain (nil when none
// exists).
func identityConst(op Op, width int) *big.Int {
	switch op {
	case OpAnd:
		return mask(width)
	case OpMul:
		return big.NewInt(1)
	default: // add, or, xor
		return new(big.Int)
	}
}

func absorbingConst(op Op, width int) *big.Int {
	switch op {
	case OpAnd, OpMul:
		return new(big.Int)
	case OpOr:
		return mask(width)
	}
	return nil
}

// canonChain canonicalizes the AC chain op(x, y). A nil return means
// the construction is already in canonical form (or too long to
// canonicalize) and the caller should intern op(x, y) directly. The
// caller has already given rewriteBinary its chance, so constants can
// only appear inside the chains, never as both top-level operands.
func (b *Builder) canonChain(op Op, x, y *Term) *Term {
	var buf [maxChainLeaves]*Term
	leaves, ok := flattenAC(op, x, buf[:0])
	if ok {
		leaves, ok = flattenAC(op, y, leaves)
	}
	if !ok {
		return nil // chain too long: intern as built
	}

	// Split constants out of the multiset and fold them into one.
	width := x.width
	var cval *big.Int
	nconst := 0
	vars := leaves[:0] // reuses buf; safe: only const entries are dropped
	for _, l := range leaves {
		if l.op == OpConst {
			nconst++
			if cval == nil {
				cval = l.val
			} else {
				cval = b.foldConst(op, width, cval, l.val)
			}
			continue
		}
		vars = append(vars, l)
	}

	// Canonical already? The construction op(x, y) interns to the
	// canonical node iff y is a single non-chain operand carrying the
	// chain's only constant (or no constant exists and y is the
	// largest-ID leaf), x's chain is left-nested, and the variable
	// leaves appear in sorted order — strictly sorted for and/or/xor,
	// where a duplicate leaf collapses (idempotence) or cancels
	// (self-inverse) and therefore demands a rebuild; add and mul keep
	// duplicates (x+x, x*x are irreducible here). In that case
	// returning nil lets the caller intern directly — the common case
	// for chains built incrementally in canonical order, which costs
	// one flatten and no rebuild.
	sorted := true
	for i := 1; i < len(vars); i++ {
		if vars[i-1].id > vars[i].id ||
			(vars[i-1].id == vars[i].id && op != OpAdd && op != OpMul) {
			sorted = false
			break
		}
	}
	if sorted && y.op != op && leftSpined(op, x) {
		if nconst == 0 {
			return nil
		}
		if nconst == 1 && y.op == OpConst {
			return nil
		}
	}

	if cval != nil {
		if abs := absorbingConst(op, width); abs != nil && cval.Cmp(abs) == 0 {
			// The folded constant annihilates the whole chain
			// (x&…&0, x|…|~0, x*…*0): a genuine word-level
			// simplification the pairwise rules could not see.
			return b.hit(b.Const(cval, width))
		}
		if cval.Cmp(identityConst(op, width)) == 0 {
			cval = nil // identity element: drop it from the chain
		}
	}
	if nconst > 1 || (nconst == 1 && cval == nil) {
		// Constants were combined or eliminated — count the fold as a
		// rewrite hit; pure reordering is accounted by the cache hits
		// the rebuild generates.
		b.RewriteHits++
	}
	slices.SortStableFunc(vars, func(s, t *Term) int { return cmp.Compare(s.id, t.id) })

	// Collapse duplicate leaves, now adjacent after sorting: and/or are
	// idempotent (x∧x = x), xor is self-inverse (pairs cancel). Add and
	// mul keep multiplicity. Each collapse is a word-level
	// simplification the pairwise rules could only see for adjacent
	// construction orders.
	switch op {
	case OpAnd, OpOr:
		w := 0
		for i, l := range vars {
			if i > 0 && l == vars[w-1] {
				b.RewriteHits++
				continue
			}
			vars[w] = l
			w++
		}
		vars = vars[:w]
	case OpXor:
		w := 0
		for i := 0; i < len(vars); {
			j := i
			for j < len(vars) && vars[j] == vars[i] {
				j++
			}
			if (j-i)%2 == 1 {
				vars[w] = vars[i]
				w++
			}
			if j-i > 1 {
				b.RewriteHits++
			}
			i = j
		}
		vars = vars[:w]
	}

	if len(vars) == 0 {
		if cval == nil {
			return b.Const(identityConst(op, width), width)
		}
		return b.Const(cval, width)
	}

	// Rebuild left-nested through the non-canonicalizing constructor:
	// pairwise rewrite rules still fire (adjacent duplicates collapse,
	// complementary pairs annihilate), but the rebuild itself cannot
	// recurse back into canonChain on the same multiset.
	acc := vars[0]
	for _, l := range vars[1:] {
		acc = b.binaryNoCanon(op, acc, l)
	}
	if cval != nil {
		acc = b.binaryNoCanon(op, acc, b.Const(cval, width))
	}
	return acc
}

// leftSpined reports whether every right operand along t's op-chain is
// a leaf, i.e. t is already a left-nested chain.
func leftSpined(op Op, t *Term) bool {
	for t.op == op {
		if t.args[1].op == op {
			return false
		}
		t = t.args[0]
	}
	return true
}
