package bv

// Native fuzz target for term construction. The input bytes drive a
// small decoder that produces a term tree (the dNode shape shared with
// the differential harness); the tree is then built through the
// rewriting Builder and through a rewrite-free reference Builder, and
// both results must evaluate identically on sampled assignments. Any
// divergence is an unsound rewrite rule reachable from raw bytes —
// the fuzzing analogue of TestDifferentialSolverStack's seeded sweep.

import (
	"fmt"
	"math/big"
	"testing"
)

type byteReader struct {
	data []byte
	pos  int
}

func (r *byteReader) next() byte {
	if r.pos >= len(r.data) {
		return 0
	}
	b := r.data[r.pos]
	r.pos++
	return b
}

var fuzzWidths = []int{1, 4, 8}

// decodeExpr turns fuzz bytes into a width-bit term description; the
// operands of comparisons take their width from widths.
func decodeExpr(r *byteReader, widths []int, width, depth int) *dNode {
	b := r.next()
	if depth <= 0 || b < 64 {
		if b%3 == 0 {
			return &dNode{op: OpConst, width: width, cval: int64(r.next()) & (1<<uint(width) - 1)}
		}
		name := fmt.Sprintf("%s%d", genVarNames[int(b)%len(genVarNames)], width)
		return &dNode{op: OpVar, width: width, vname: name}
	}
	switch b % 8 {
	case 0, 1, 2: // binary word op
		op := genBinOps[int(r.next())%len(genBinOps)]
		return &dNode{op: op, width: width, kids: []*dNode{
			decodeExpr(r, widths, width, depth-1), decodeExpr(r, widths, width, depth-1)}}
	case 3: // unary
		op := OpNot
		if r.next()%2 == 0 {
			op = OpNeg
		}
		return &dNode{op: op, width: width, kids: []*dNode{decodeExpr(r, widths, width, depth-1)}}
	case 4: // comparison (result width 1) or ite
		if width == 1 {
			w := widths[int(r.next())%len(widths)]
			op := []Op{OpEq, OpULT, OpULE, OpSLT, OpSLE}[int(r.next())%5]
			return &dNode{op: op, width: 1, kids: []*dNode{
				decodeExpr(r, widths, w, depth-1), decodeExpr(r, widths, w, depth-1)}}
		}
		return &dNode{op: OpITE, width: width, kids: []*dNode{
			decodeExpr(r, widths, 1, depth-1), decodeExpr(r, widths, width, depth-1), decodeExpr(r, widths, width, depth-1)}}
	case 5: // extension
		if width == 1 {
			return decodeExpr(r, widths, width, depth-1)
		}
		op := OpZExt
		if r.next()%2 == 0 {
			op = OpSExt
		}
		from := 1 + int(r.next())%(width-1)
		return &dNode{op: op, width: width, kids: []*dNode{decodeExpr(r, widths, from, depth-1)}}
	case 6: // extract
		extra := 1 + int(r.next())%4
		lo := int(r.next()) % (extra + 1)
		return &dNode{op: OpExtract, width: width, hi: lo + width - 1, lo: lo,
			kids: []*dNode{decodeExpr(r, widths, width+extra, depth-1)}}
	default: // concat
		if width == 1 {
			return decodeExpr(r, widths, width, depth-1)
		}
		hw := 1 + int(r.next())%(width-1)
		return &dNode{op: OpConcat, width: width, kids: []*dNode{
			decodeExpr(r, widths, width-hw, depth-1), decodeExpr(r, widths, hw, depth-1)}}
	}
}

// FuzzTermConstruction cross-checks rewriting against reference
// construction on byte-driven term trees.
func FuzzTermConstruction(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{200, 3, 70, 10, 20, 65, 1, 2, 3})
	f.Add([]byte{68, 0, 1, 100, 5, 200, 7, 7, 7, 7, 90, 90, 90})
	f.Add([]byte{76, 1, 0, 255, 12, 99, 104, 2, 2, 140, 6, 80, 80, 80, 80})
	f.Add([]byte{255, 254, 253, 252, 251, 250, 249, 248, 0, 0, 0, 0, 127, 64, 65, 66})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 512 {
			t.Skip("oversized input")
		}
		r := &byteReader{data: data}
		width := fuzzWidths[int(r.next())%len(fuzzWidths)]
		tree := decodeExpr(r, fuzzWidths, width, 4)

		full := NewBuilder()
		ref := NewBuilder()
		ref.NoRewrite = true
		tFull := buildNode(full, tree)
		tRef := buildNode(ref, tree)
		if tFull.Width() != width || tRef.Width() != width {
			t.Fatalf("width mismatch: full=%d ref=%d want %d", tFull.Width(), tRef.Width(), width)
		}
		if ref.RewriteHits != 0 {
			t.Fatalf("reference builder rewrote %d terms", ref.RewriteHits)
		}

		// Sample assignments from the remaining input bytes plus two
		// fixed corners.
		vars := map[string]int{}
		collectVars(tree, vars)
		envs := []map[string]*big.Int{{}, {}}
		for name, w := range vars {
			envs[0][name] = big.NewInt(0)
			envs[1][name] = new(big.Int).Set(mask(w))
		}
		for k := 0; k < 4; k++ {
			env := map[string]*big.Int{}
			for name, w := range vars {
				env[name] = big.NewInt(int64(r.next()) & (1<<uint(w) - 1))
			}
			envs = append(envs, env)
		}
		for _, env := range envs {
			want := evalTerm(tRef, env)
			if got := evalTerm(tFull, env); got.Cmp(want) != 0 {
				t.Fatalf("rewrite divergence under %v:\n full = %v (%s)\n ref  = %v (%s)",
					env, got, tFull, want, tRef)
			}
		}
	})
}
