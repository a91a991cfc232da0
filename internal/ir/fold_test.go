package ir

import "testing"

// foldOps are the operations FoldConst handles.
var foldOps = []Op{
	OpAdd, OpSub, OpMul, OpNeg, OpAnd, OpOr, OpXor, OpNot,
	OpZExt, OpSExt, OpTrunc, OpICmp, OpUDiv, OpSDiv, OpURem, OpSRem,
}

var foldWidths = []int{1, 8, 16, 32, 64}

// foldCase builds the one-instruction function ret op(x, y) whose
// parameters x and y have width aw, and returns it with its
// instruction. The function is nil when the widths do not fit op: an
// extension must widen and a truncation narrow.
func foldCase(op Op, w, aw int, pred Cmp, signed bool) (*Func, *Value) {
	switch op {
	case OpZExt, OpSExt:
		if aw >= w {
			return nil, nil
		}
	case OpTrunc:
		if aw <= w {
			return nil, nil
		}
	case OpICmp:
		w = 1
	default:
		aw = w
	}
	f := &Func{Name: "fold", RetWidth: w}
	b := f.NewBlock()
	f.Entry = b
	for _, name := range []string{"x", "y"} {
		f.Params = append(f.Params, &Value{ID: f.NewValueID(), Op: OpParam, Width: aw, AuxName: name, Block: b})
	}
	args := f.Params
	switch op {
	case OpNeg, OpNot, OpZExt, OpSExt, OpTrunc:
		args = args[:1]
	}
	v := &Value{ID: f.NewValueID(), Op: op, Width: w, Signed: signed, Args: args, Block: b}
	if op == OpICmp {
		v.Aux = int64(pred)
	}
	b.Instrs = []*Value{v}
	b.Term = &Value{ID: f.NewValueID(), Op: OpRet, Args: []*Value{v}, Block: b}
	return f, v
}

// FuzzFoldMatchesExec checks FoldConst against the concrete evaluator:
// wherever the folder gives a value and flags no UB, ir.Exec of the
// one-instruction function computes the same value. Operands are
// handed over unmasked, so the folder's own masking is exercised, and
// the seeds pair the edge operands 0, 1, -1, MIN and MAX of every
// operand width for every operation.
func FuzzFoldMatchesExec(f *testing.F) {
	for oi, op := range foldOps {
		for wi, w := range foldWidths {
			smin := uint64(1) << uint(w-1)
			edges := []uint64{0, 1, ^uint64(0), smin, smin - 1}
			auxes := []uint8{0}
			switch op {
			case OpICmp:
				auxes = []uint8{0, 1, 2, 3, 4, 5}
			case OpZExt, OpSExt, OpTrunc:
				auxes = []uint8{0, 1, 2, 3, 4}
			}
			for _, aux := range auxes {
				for _, x := range edges {
					for _, y := range edges {
						f.Add(uint8(oi), uint8(wi), aux, false, x, y)
						if op == OpAdd || op == OpSub || op == OpMul || op == OpNeg {
							f.Add(uint8(oi), uint8(wi), aux, true, x, y)
						}
					}
				}
			}
		}
	}
	f.Fuzz(func(t *testing.T, opi, wi, aux uint8, signed bool, x, y uint64) {
		op := foldOps[int(opi)%len(foldOps)]
		w := foldWidths[int(wi)%len(foldWidths)]
		aw := foldWidths[int(aux)%len(foldWidths)]
		fn, v := foldCase(op, w, aw, Cmp(int(aux)%len(cmpNames)), signed)
		if fn == nil {
			return
		}
		got, ok, ub := FoldConst(v, x, y)
		if !ok || ub {
			return
		}
		want, err := Exec(fn, []uint64{x, y}, ExecOptions{})
		if err != nil {
			t.Fatalf("%v: folded to %#x, Exec: %v", v, got, err)
		}
		if got != want.Ret {
			t.Fatalf("%v with x=%#x y=%#x: folded to %#x, Exec gives %#x", v, x, y, got, want.Ret)
		}
	})
}
