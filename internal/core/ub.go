package core

import (
	"fmt"

	"repro/internal/cc"
	"repro/internal/ir"
)

// UBKind labels one row of the paper's Figure 3.
type UBKind int

// UB kinds, in the order of the paper's Figure 9 breakdown.
const (
	UBPointerOverflow UBKind = iota // p + x out of address space
	UBNullDeref                     // *p with p == NULL
	UBSignedOverflow                // x ops y out of signed range
	UBDivByZero                     // x/0, x%0 (incl. INT_MIN/-1)
	UBOversizedShift                // shift amount < 0 or >= width
	UBBufferOverflow                // a[x] with x out of bounds
	UBAbsOverflow                   // abs(INT_MIN)
	UBMemcpyOverlap                 // overlapping memcpy
	UBUseAfterFree                  // use q after free(p), alias(p,q)
	UBUseAfterRealloc               // use q after realloc(p), alias(p,q)
	numUBKinds
)

var ubKindNames = [...]string{
	"pointer overflow", "null pointer dereference",
	"signed integer overflow", "division by zero", "oversized shift",
	"buffer overflow", "absolute value overflow",
	"overlapping memory copy", "use after free", "use after realloc",
}

func (k UBKind) String() string { return ubKindNames[k] }

// NumUBKinds is the number of modelled UB kinds (Fig. 3).
const NumUBKinds = int(numUBKinds)

// UBCond is one inserted bug_on condition (paper §4.3): the value it
// is attached to, its kind, and the source position for reporting.
type UBCond struct {
	Kind  UBKind
	Value *ir.Value // the instruction whose execution has this UB condition
	Pos   cc.Pos
	// aux carries extra operands for conditions that relate two
	// values (use-after-free pairs).
	aux *ir.Value
}

func (u *UBCond) String() string {
	return fmt.Sprintf("%s at %s", u.Kind, u.Pos)
}

// insertUBConds computes the Figure 3 conditions for every instruction
// in f, in block order. It returns them grouped by value. This is the
// analogue of STACK's bug_on insertion stage: the conditions become
// the ∆(x) terms of the well-defined program assumption (Def. 2).
func insertUBConds(f *ir.Func) map[*ir.Value][]*UBCond {
	out := make(map[*ir.Value][]*UBCond)
	add := func(v *ir.Value, k UBKind, aux *ir.Value) {
		out[v] = append(out[v], &UBCond{Kind: k, Value: v, Pos: v.Pos, aux: aux})
	}
	// Track free/realloc calls for use-after-free conditions: any
	// memory access or pointer use dominated by free(p) carries the
	// condition alias(p, q). The dominance check happens at query
	// time; here we record the pairs per accessing value.
	var frees []*ir.Value    // free(p) calls
	var reallocs []*ir.Value // realloc(p, n) calls
	for _, b := range f.Blocks {
		for v := range b.All() {
			switch v.Op {
			case ir.OpPtrAdd:
				add(v, UBPointerOverflow, nil)
			case ir.OpLoad, ir.OpStore:
				add(v, UBNullDeref, nil)
				for _, fr := range frees {
					add(v, UBUseAfterFree, fr)
				}
				for _, ra := range reallocs {
					add(v, UBUseAfterRealloc, ra)
				}
			case ir.OpAdd, ir.OpSub, ir.OpMul:
				if v.Signed {
					add(v, UBSignedOverflow, nil)
				}
			case ir.OpNeg:
				if v.Signed {
					add(v, UBSignedOverflow, nil)
				}
			case ir.OpSDiv, ir.OpSRem, ir.OpUDiv, ir.OpURem:
				add(v, UBDivByZero, nil)
			case ir.OpShl, ir.OpLShr, ir.OpAShr:
				add(v, UBOversizedShift, nil)
			case ir.OpIndexAddr:
				if v.Aux2 > 0 {
					add(v, UBBufferOverflow, nil)
				}
			case ir.OpCall:
				switch v.AuxName {
				case "abs", "labs":
					add(v, UBAbsOverflow, nil)
				case "memcpy":
					add(v, UBMemcpyOverlap, nil)
				case "free":
					frees = append(frees, v)
				case "realloc":
					reallocs = append(reallocs, v)
				}
			}
		}
	}
	return out
}
