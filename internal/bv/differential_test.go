package bv

// Differential test harness for the whole solver stack. A seeded
// random generator produces boolean term trees; each tree is built
// twice — once through the production Builder (word-level rewrites,
// constant fast paths) and solved by a long-lived incremental Session,
// and once through a rewrite-free Builder solved from scratch per
// query. The reference path exercises none of the optimizations, so
// any divergence in verdicts localizes a soundness bug in the rewrite
// engine, the fast paths, or the incremental session machinery.
// Sat models from every path — including the stored assignments an
// incremental session answers from without search — are validated
// against the concrete evaluator (eval.go) on the *unrewritten* tree,
// and small Unsat verdicts are confirmed by exhaustive enumeration.

import (
	"fmt"
	"math/big"
	"math/rand"
	"testing"
)

// dNode is a builder-independent description of a term, so the same
// expression can be constructed through differently configured
// Builders.
type dNode struct {
	op     Op
	width  int // result width
	kids   []*dNode
	cval   int64  // OpConst
	vname  string // OpVar
	hi, lo int    // OpExtract
}

// buildNode constructs the described term through b's public
// constructors (triggering whatever rewriting b is configured for).
func buildNode(b *Builder, n *dNode) *Term {
	arg := func(i int) *Term { return buildNode(b, n.kids[i]) }
	switch n.op {
	case OpConst:
		return b.ConstInt64(n.cval, n.width)
	case OpVar:
		return b.Var(n.vname, n.width)
	case OpNot:
		return b.Not(arg(0))
	case OpNeg:
		return b.Neg(arg(0))
	case OpAnd:
		return b.And(arg(0), arg(1))
	case OpOr:
		return b.Or(arg(0), arg(1))
	case OpXor:
		return b.Xor(arg(0), arg(1))
	case OpAdd:
		return b.Add(arg(0), arg(1))
	case OpSub:
		return b.Sub(arg(0), arg(1))
	case OpMul:
		return b.Mul(arg(0), arg(1))
	case OpUDiv:
		return b.UDiv(arg(0), arg(1))
	case OpURem:
		return b.URem(arg(0), arg(1))
	case OpSDiv:
		return b.SDiv(arg(0), arg(1))
	case OpSRem:
		return b.SRem(arg(0), arg(1))
	case OpShl:
		return b.Shl(arg(0), arg(1))
	case OpLShr:
		return b.LShr(arg(0), arg(1))
	case OpAShr:
		return b.AShr(arg(0), arg(1))
	case OpEq:
		return b.Eq(arg(0), arg(1))
	case OpULT:
		return b.ULT(arg(0), arg(1))
	case OpULE:
		return b.ULE(arg(0), arg(1))
	case OpSLT:
		return b.SLT(arg(0), arg(1))
	case OpSLE:
		return b.SLE(arg(0), arg(1))
	case OpITE:
		return b.ITE(arg(0), arg(1), arg(2))
	case OpZExt:
		return b.ZExt(arg(0), n.width)
	case OpSExt:
		return b.SExt(arg(0), n.width)
	case OpExtract:
		return b.Extract(arg(0), n.hi, n.lo)
	case OpConcat:
		return b.Concat(arg(0), arg(1))
	}
	panic("buildNode: unexpected op " + n.op.String())
}

// collectVars gathers the distinct variables of a tree.
func collectVars(n *dNode, out map[string]int) {
	if n.op == OpVar {
		out[n.vname] = n.width
		return
	}
	for _, k := range n.kids {
		collectVars(k, out)
	}
}

// termGen generates random term trees. Variables are named per width
// ("x4", "y4", ...) so every builder agrees on their declarations.
type termGen struct {
	rng *rand.Rand
}

var genVarNames = []string{"x", "y", "z"}

func (g *termGen) leaf(width int) *dNode {
	if g.rng.Intn(3) == 0 {
		return &dNode{op: OpConst, width: width, cval: g.rng.Int63n(1 << uint(width))}
	}
	name := fmt.Sprintf("%s%d", genVarNames[g.rng.Intn(len(genVarNames))], width)
	return &dNode{op: OpVar, width: width, vname: name}
}

var genBinOps = []Op{
	OpAnd, OpOr, OpXor, OpAdd, OpSub, OpMul,
	OpUDiv, OpURem, OpSDiv, OpSRem, OpShl, OpLShr, OpAShr,
}

// expr generates a width-bit term of bounded depth.
func (g *termGen) expr(width, depth int) *dNode {
	if depth <= 0 || width == 1 && g.rng.Intn(2) == 0 {
		return g.leaf(width)
	}
	switch c := g.rng.Intn(10); {
	case c < 4: // binary word op
		op := genBinOps[g.rng.Intn(len(genBinOps))]
		return &dNode{op: op, width: width, kids: []*dNode{g.expr(width, depth-1), g.expr(width, depth-1)}}
	case c < 5: // unary
		op := OpNot
		if g.rng.Intn(2) == 0 {
			op = OpNeg
		}
		return &dNode{op: op, width: width, kids: []*dNode{g.expr(width, depth-1)}}
	case c < 6: // ite
		return &dNode{op: OpITE, width: width, kids: []*dNode{
			g.boolean(depth - 1), g.expr(width, depth-1), g.expr(width, depth-1)}}
	case c < 7 && width > 1: // extension from a narrower operand
		op := OpZExt
		if g.rng.Intn(2) == 0 {
			op = OpSExt
		}
		from := 1 + g.rng.Intn(width-1)
		return &dNode{op: op, width: width, kids: []*dNode{g.expr(from, depth-1)}}
	case c < 8: // extract from a wider operand
		extra := 1 + g.rng.Intn(4)
		lo := g.rng.Intn(extra + 1)
		return &dNode{op: OpExtract, width: width, hi: lo + width - 1, lo: lo,
			kids: []*dNode{g.expr(width+extra, depth-1)}}
	case c < 9 && width > 1: // concat of two halves
		hw := 1 + g.rng.Intn(width-1)
		return &dNode{op: OpConcat, width: width, kids: []*dNode{
			g.expr(width-hw, depth-1), g.expr(hw, depth-1)}}
	}
	return g.leaf(width)
}

// boolean generates a width-1 term, biased toward comparisons.
func (g *termGen) boolean(depth int) *dNode {
	if depth <= 0 {
		return g.leaf(1)
	}
	switch g.rng.Intn(6) {
	case 0, 1, 2: // comparison over a random width
		w := []int{1, 4, 8}[g.rng.Intn(3)]
		op := []Op{OpEq, OpULT, OpULE, OpSLT, OpSLE}[g.rng.Intn(5)]
		return &dNode{op: op, width: 1, kids: []*dNode{g.expr(w, depth-1), g.expr(w, depth-1)}}
	case 3: // boolean connective
		op := []Op{OpAnd, OpOr, OpXor}[g.rng.Intn(3)]
		return &dNode{op: op, width: 1, kids: []*dNode{g.boolean(depth - 1), g.boolean(depth - 1)}}
	case 4:
		return &dNode{op: OpNot, width: 1, kids: []*dNode{g.boolean(depth - 1)}}
	}
	return g.expr(1, depth)
}

// modelEnv reads the model values of tree's variables from value.
func modelEnv(vars map[string]int, value func(name string, width int) *big.Int) map[string]*big.Int {
	env := make(map[string]*big.Int, len(vars))
	for name, w := range vars {
		env[name] = value(name, w)
	}
	return env
}

// enumerateUnsat exhaustively confirms that no assignment satisfies the
// unrewritten term; it is only called when the search space is small.
func enumerateUnsat(t *testing.T, tRef *Term, vars map[string]int, totalBits int) {
	t.Helper()
	names := make([]string, 0, len(vars))
	for name := range vars {
		names = append(names, name)
	}
	for m := 0; m < 1<<uint(totalBits); m++ {
		env := map[string]*big.Int{}
		shift := 0
		for _, name := range names {
			w := vars[name]
			env[name] = big.NewInt(int64(m >> uint(shift) & (1<<uint(w) - 1)))
			shift += w
		}
		if evalTerm(tRef, env).Sign() != 0 {
			t.Fatalf("solver said unsat but %v satisfies the query", env)
		}
	}
}

// TestDifferentialSolverStack cross-checks the optimized stack against
// the rewrite-free scratch reference on thousands of seeded random
// queries, validating models on Sat and (for small spaces) enumerating
// on Unsat.
func TestDifferentialSolverStack(t *testing.T) {
	const cases = 2500
	g := &termGen{rng: rand.New(rand.NewSource(20130324))}

	// The production stack: rewriting builder, incremental sessions
	// reused across a chunk of queries (the checker's per-function
	// shape), plus a scratch-mode session on the same builder.
	full := NewBuilder()
	sessInc := NewSession(full, nil)
	sessScr := NewSession(full, nil)
	sessScr.Scratch = true
	var blastsInc, blastsScr, fastInc int64
	witnessedModels := 0 // incremental Sat models that came from the ring

	// The reference: no rewrites, fresh solver per query.
	ref := NewBuilder()
	ref.NoRewrite = true

	// Rotating the sessions bounds the SAT instance while still
	// covering dozens of consecutive queries per session.
	const sessionEvery = 64

	verdicts := map[Result]int{}
	for i := 0; i < cases; i++ {
		if i > 0 && i%sessionEvery == 0 {
			blastsInc += sessInc.Blasts()
			blastsScr += sessScr.Blasts()
			fastInc += sessInc.FastPaths
			sessInc = NewSession(full, nil)
			sessScr = NewSession(full, nil)
			sessScr.Scratch = true
		}
		tree := g.boolean(3)
		vars := map[string]int{}
		collectVars(tree, vars)

		tFull := buildNode(full, tree)
		tRef := buildNode(ref, tree)

		refSess := NewSession(ref, nil)
		refSess.Scratch = true
		want := refSess.Solve(tRef)
		if got := sessInc.Solve(tFull); got != want {
			t.Fatalf("case %d: incremental=%v reference=%v for %s", i, got, want, tRef)
		}
		if got := sessScr.Solve(tFull); got != want {
			t.Fatalf("case %d: scratch=%v reference=%v for %s", i, got, want, tRef)
		}
		verdicts[want]++

		switch want {
		case Sat:
			// Every model on offer must satisfy the unrewritten tree
			// under concrete reference semantics.
			if refSess.HasModel() {
				env := modelEnv(vars, func(n string, w int) *big.Int { return refSess.Value(ref.Var(n, w)) })
				if evalTerm(tRef, env).Sign() == 0 {
					t.Fatalf("case %d: reference model %v falsifies %s", i, env, tRef)
				}
			}
			for name, sess := range map[string]*Session{"incremental": sessInc, "scratch": sessScr} {
				if !sess.HasModel() {
					continue // constant fast path: verdict without model
				}
				env := modelEnv(vars, func(n string, w int) *big.Int { return sess.Value(full.Var(n, w)) })
				if evalTerm(tRef, env).Sign() == 0 {
					t.Fatalf("case %d: %s model %v falsifies reference tree %s", i, name, env, tRef)
				}
				if sess.witnessed {
					witnessedModels++
				}
			}
		case Unsat:
			totalBits := 0
			for _, w := range vars {
				totalBits += w
			}
			if totalBits <= 12 {
				enumerateUnsat(t, tRef, vars, totalBits)
			}
		case Unknown:
			t.Fatalf("case %d: reference returned unknown with no budget set", i)
		}
	}

	// The run must actually exercise both verdicts and the optimization
	// layers it claims to test.
	if verdicts[Sat] < cases/10 || verdicts[Unsat] < cases/50 {
		t.Errorf("verdict mix too skewed to be meaningful: %v", verdicts)
	}
	if full.RewriteHits == 0 {
		t.Error("random queries triggered no rewrites in the full stack")
	}
	if ref.RewriteHits != 0 {
		t.Errorf("reference builder rewrote %d terms; must be rewrite-free", ref.RewriteHits)
	}
	blastsInc += sessInc.Blasts()
	blastsScr += sessScr.Blasts()
	fastInc += sessInc.FastPaths
	if fastInc == 0 {
		t.Error("random queries never hit the constant fast path")
	}
	if witnessedModels == 0 {
		t.Error("no incremental Sat was answered from a stored assignment; the witness models went unchecked")
	}
	t.Logf("witnessed models checked: %d", witnessedModels)
	if blastsInc >= blastsScr {
		t.Errorf("incremental sessions blasted %d terms, scratch %d; reuse not happening",
			blastsInc, blastsScr)
	}
}
