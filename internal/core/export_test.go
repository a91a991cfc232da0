package core

import (
	"context"
	"fmt"
	"slices"

	"repro/internal/bv"
	"repro/internal/ir"
)

// DeltaKept asks the checker for the ∆ of every block of f, with
// uptoTerm false and then true, visiting the blocks in layout order
// or, when reverse is set, in reverse. kept[i][upto] lists, as indices
// into the function's UB conditions, the conditions that the ∆ of
// block f.Blocks[i] keeps. After each ∆, every memoized term is built
// again from scratch on the same builder, and so is the ∆ itself; each
// term that is not the identical memoized one is a mismatch. f is
// prepared as CheckFunc prepares it, so it must not be checked again.
func DeltaKept(f *ir.Func, opts Options, reverse bool) (kept [][2][]int, mismatches []string) {
	st := New(opts).newFuncState(context.Background(), f, bv.NewBuilder())
	bb := st.enc.b
	index := map[*UBCond]int{}
	for i, u := range st.allConds {
		index[u] = i
	}
	order := make([]int, len(f.Blocks))
	for i := range order {
		order[i] = i
	}
	if reverse {
		slices.Reverse(order)
	}
	kept = make([][2][]int, len(f.Blocks))
	for _, bi := range order {
		b := f.Blocks[bi]
		for upto, uptoTerm := range []bool{false, true} {
			where := fmt.Sprintf("%s b%d uptoTerm=%v", f.Name, b.ID, uptoTerm)
			terms, conds := st.wellDefinedTerms(b, uptoTerm)
			for _, u := range conds {
				kept[bi][upto] = append(kept[bi][upto], index[u])
			}
			if want := st.unmemoizedTerms(b, uptoTerm); !slices.Equal(terms, want) {
				mismatches = append(mismatches, fmt.Sprintf("%s: ∆ differs from its unmemoized construction", where))
			}
			for i, u := range st.allConds {
				d := st.delta[i]
				if d.ub != nil && d.ub != st.enc.ubTerm(u) {
					mismatches = append(mismatches, fmt.Sprintf("%s: U of condition %d", where, i))
				}
				if d.plain != nil && d.plain != bb.Not(st.enc.ubTerm(u)) {
					mismatches = append(mismatches, fmt.Sprintf("%s: ¬U of condition %d", where, i))
				}
				if d.guarded != nil && d.guarded != bb.Or(bb.Not(st.enc.reachability(u.Value.Block)), bb.Not(st.enc.ubTerm(u))) {
					mismatches = append(mismatches, fmt.Sprintf("%s: ¬R ∨ ¬U of condition %d", where, i))
				}
			}
		}
	}
	return kept, mismatches
}

// unmemoizedTerms is wellDefinedTerms building every term afresh.
func (st *funcState) unmemoizedTerms(b *ir.Block, uptoTerm bool) []*bv.Term {
	bb := st.enc.b
	seen := map[*bv.Term]bool{}
	var terms []*bv.Term
	for _, u := range st.allConds {
		ut := st.enc.ubTerm(u)
		var t *bv.Term
		ub := u.Value.Block
		if (ub == b && uptoTerm && u.Value != b.Term) || (ub != b && st.dom.Dominates(ub, b)) {
			t = bb.Not(ut)
		} else {
			t = bb.Or(bb.Not(st.enc.reachability(ub)), bb.Not(ut))
		}
		if !t.IsConstBool(true) && !seen[t] {
			seen[t] = true
			terms = append(terms, t)
		}
	}
	return terms
}
