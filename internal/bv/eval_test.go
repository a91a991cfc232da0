package bv

// The concrete evaluator against the blaster. Both implement the same
// QF_BV semantics independently: for any term and input, evaluating
// must give the value that blasting the term and solving with the
// inputs fixed by unit assumptions reads from the model. Widths 64 and
// 66 drive the evaluator's uint64 path to its limit and its math/big
// path, and extracts and extensions cross between the two.

import (
	"math/big"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"

	"repro/internal/sat"
)

var evalFuzzWidths = []int{1, 4, 8, 64, 66}

// decodeEvalCase turns fuzz bytes into a term tree and the inputs to
// evaluate it under: all zeros, all ones (so every variable divisor is
// zero once and every variable shift amount reaches the width once),
// and two assignments read from the remaining bytes.
func decodeEvalCase(data []byte) (*dNode, map[string]int, []map[string]*big.Int) {
	r := &byteReader{data: data}
	width := evalFuzzWidths[int(r.next())%len(evalFuzzWidths)]
	tree := decodeExpr(r, evalFuzzWidths, width, 3)
	vars := map[string]int{}
	collectVars(tree, vars)
	names := make([]string, 0, len(vars))
	for name := range vars {
		names = append(names, name)
	}
	sort.Strings(names)
	envs := []map[string]*big.Int{{}, {}}
	for _, name := range names {
		envs[0][name] = new(big.Int)
		envs[1][name] = mask(vars[name])
	}
	for k := 0; k < 2; k++ {
		env := map[string]*big.Int{}
		for _, name := range names {
			v := new(big.Int)
			for i := 0; i < (vars[name]+7)/8; i++ {
				v.Lsh(v, 8).Or(v, big.NewInt(int64(r.next())))
			}
			env[name] = v.And(v, mask(vars[name]))
		}
		envs = append(envs, env)
	}
	return tree, vars, envs
}

// blastValue lowers t to CNF, fixes every variable bit to its value in
// env with a unit assumption, and reads t's value from the model.
func blastValue(t *testing.T, bld *Builder, term *Term, env map[string]*big.Int) *big.Int {
	t.Helper()
	sv := newSolver(bld)
	out := sv.bl.blast(bld, term)
	var assume []sat.Lit
	for _, in := range sv.bl.inputs {
		v := env[in.v.name]
		for i, l := range in.lits {
			if v.Bit(i) == 0 {
				l = l.Not()
			}
			assume = append(assume, l)
		}
	}
	if res := sv.sat.Solve(assume...); res != sat.Sat {
		t.Fatalf("fixed inputs %v gave %v, want sat", env, res)
	}
	v := new(big.Int)
	for i, l := range out {
		if sv.sat.ModelValue(l.Var()) != l.Neg() {
			v.SetBit(v, i, 1)
		}
	}
	return v
}

// FuzzEvalMatchesBlast checks the evaluator against blast-then-solve on
// byte-driven terms, built without rewriting so that every operation
// reaches both sides as constructed.
func FuzzEvalMatchesBlast(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{3, 200, 1, 70, 10, 20, 65, 1, 2, 3})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 256 {
			t.Skip("oversized input")
		}
		tree, _, envs := decodeEvalCase(data)
		bld := NewBuilder()
		bld.NoRewrite = true
		term := buildNode(bld, tree)
		for _, env := range envs {
			if got, want := evalTerm(term, env), blastValue(t, bld, term, env); got.Cmp(want) != 0 {
				t.Fatalf("under %v: evaluator %v, blaster %v for %s", env, got, want, term)
			}
		}
	})
}

// TestBlastShiftByHighAmounts: a shift by 2^30 or more — an amount
// whose low bits alone would select a small shift — gives 0, or the
// sign fill for ashr, at widths 32 and 64, in the blaster as in the
// evaluator.
func TestBlastShiftByHighAmounts(t *testing.T) {
	for _, width := range []int{32, 64} {
		bld := NewBuilder()
		bld.NoRewrite = true
		x, amt := bld.Var("x", width), bld.Var("amt", width)
		amounts := []uint64{1 << 30, 1<<31 + 1, 1<<31 | 1<<30 | 3}
		if width == 64 {
			amounts = append(amounts, 1<<63, 1<<63|5)
		}
		for _, op := range []Op{OpShl, OpLShr, OpAShr} {
			var term *Term
			switch op {
			case OpShl:
				term = bld.Shl(x, amt)
			case OpLShr:
				term = bld.LShr(x, amt)
			default:
				term = bld.AShr(x, amt)
			}
			for _, xv := range []uint64{0x1234_5678, 1<<uint(width-1) | 0xF0} {
				want := new(big.Int)
				if op == OpAShr && xv>>uint(width-1) == 1 {
					want = mask(width)
				}
				for _, a := range amounts {
					env := map[string]*big.Int{"x": new(big.Int).SetUint64(xv), "amt": new(big.Int).SetUint64(a)}
					if got := blastValue(t, bld, term, env); got.Cmp(want) != 0 {
						t.Errorf("width %d: %v x=%#x by %#x: blaster %#x, want %#x", width, op, xv, a, got, want)
					}
					if got := evalTerm(term, env); got.Cmp(want) != 0 {
						t.Errorf("width %d: %v x=%#x by %#x: evaluator %#x, want %#x", width, op, xv, a, got, want)
					}
				}
			}
		}
	}
}

// TestEvalSeedsCoverEveryOp holds the FuzzEvalMatchesBlast seed corpus
// to its purpose: together the seeds evaluate every operation on the
// uint64 path and on the math/big path, divide and take the remainder
// by zero in every signedness, and shift by at least the width in
// every direction.
func TestEvalSeedsCoverEveryOp(t *testing.T) {
	files, err := filepath.Glob("testdata/fuzz/FuzzEvalMatchesBlast/*")
	if err != nil || len(files) == 0 {
		t.Fatalf("no seed corpus (%v)", err)
	}
	type site struct {
		op   Op
		wide bool
	}
	seen := map[site]bool{}
	edge := map[Op]bool{} // division by zero, shift by ≥ width
	for _, file := range files {
		raw, err := os.ReadFile(file)
		if err != nil {
			t.Fatal(err)
		}
		lines := strings.Split(strings.TrimSpace(string(raw)), "\n")
		quoted := strings.TrimSuffix(strings.TrimPrefix(lines[len(lines)-1], "[]byte("), ")")
		data, err := strconv.Unquote(quoted)
		if err != nil {
			t.Fatalf("%s: %v", file, err)
		}
		tree, _, envs := decodeEvalCase([]byte(data))
		bld := NewBuilder()
		bld.NoRewrite = true
		term := buildNode(bld, tree)
		var walk func(n *Term)
		walk = func(n *Term) {
			wide := n.width > 64
			for _, a := range n.args {
				wide = wide || a.width > 64
				walk(a)
			}
			seen[site{n.op, wide}] = true
			if len(n.args) != 2 {
				return
			}
			for _, env := range envs {
				y := evalTerm(n.args[1], env)
				switch n.op {
				case OpUDiv, OpURem, OpSDiv, OpSRem:
					edge[n.op] = edge[n.op] || y.Sign() == 0
				case OpShl, OpLShr, OpAShr:
					edge[n.op] = edge[n.op] || y.Cmp(big.NewInt(int64(n.width))) >= 0
				}
			}
		}
		walk(term)
	}
	for op := OpConst; op <= OpConcat; op++ {
		for _, wide := range []bool{false, true} {
			if !seen[site{op, wide}] {
				t.Errorf("no seed evaluates %v with wide=%v", op, wide)
			}
		}
	}
	for _, op := range []Op{OpUDiv, OpURem, OpSDiv, OpSRem, OpShl, OpLShr, OpAShr} {
		if !edge[op] {
			t.Errorf("no seed reaches the %v edge case (zero divisor or shift ≥ width)", op)
		}
	}
}

// TestEvaluatorMemoPerAssignment: one evaluator reused across
// assignments, as a session reuses it across stored assignments, must
// forget every memoized value on reset — including when the epoch
// counter wraps around.
func TestEvaluatorMemoPerAssignment(t *testing.T) {
	b := NewBuilder()
	x, y := b.Var("x", 8), b.Var("y", 66)
	sum := b.Add(b.ZExt(x, 66), y) // a wide term over a narrow one
	q := b.ULT(b.Extract(sum, 7, 0), b.ConstInt64(10, 8))
	var e evaluator
	for i, env := range []map[string]*big.Int{
		{"x": big.NewInt(3), "y": big.NewInt(4)},
		{"x": big.NewInt(200), "y": new(big.Int).Lsh(big.NewInt(1), 65)},
		{"x": big.NewInt(1), "y": big.NewInt(1)},
	} {
		if i == 1 {
			// Wrap to epoch 1, the epoch assignment 0 was stamped in.
			e.epoch = ^uint32(0)
		}
		e.reset()
		in := envInput(env)
		want := new(big.Int).Add(env["x"], env["y"])
		if got := e.value(sum, in); got.Cmp(want) != 0 {
			t.Errorf("assignment %d: sum = %v, want %v", i, got, want)
		}
		if got, want := e.isTrue(q, in), new(big.Int).And(want, big.NewInt(0xFF)).Int64() < 10; got != want {
			t.Errorf("assignment %d: q = %v, want %v", i, got, want)
		}
	}
}
