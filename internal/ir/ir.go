// Package ir defines the typed intermediate representation that the
// STACK reproduction analyzes, standing in for LLVM IR in the original
// system (paper §4.1/Fig. 7). A Func is a control-flow graph of basic
// blocks holding instructions in SSA form; the builder (builder.go)
// lowers type-checked C ASTs into this form, constructing SSA
// on the fly. Dominator computation (dom.go), function inlining with
// origin tracking (inline.go), and a concrete C* evaluator (exec.go)
// complete the substrate.
package ir

import (
	"fmt"
	"iter"
	"strings"

	"repro/internal/cc"
)

// Op enumerates IR operations.
type Op uint8

// Operations. Arithmetic carries an explicit Signed flag on the
// instruction when C assigns undefined behavior to signed overflow.
const (
	OpInvalid Op = iota

	// Values without operands.
	OpConst   // Aux = value (two's complement in Width bits)
	OpParam   // AuxName = parameter name
	OpGlobal  // AuxName = global name; value is its address
	OpUnknown // opaque value (external input, widened loop value)
	OpString  // AuxName = literal; value is its address

	// Arithmetic. Signed flag => signed-overflow UB applies (Fig. 3).
	OpAdd
	OpSub
	OpMul
	OpUDiv
	OpSDiv
	OpURem
	OpSRem
	OpNeg

	// Bitwise.
	OpAnd
	OpOr
	OpXor
	OpNot

	// Shifts. UB when the shift amount is negative or ≥ width.
	OpShl
	OpLShr
	OpAShr

	// Comparison; Aux = predicate (CmpEq etc.), result Width 1.
	OpICmp

	// Conversions.
	OpZExt
	OpSExt
	OpTrunc

	// Select (cond, a, b).
	OpSelect

	// Pointer arithmetic: args[0] pointer + args[1] byte offset.
	// UB: pointer overflow (Fig. 3 row 1).
	OpPtrAdd
	// IndexAddr: args[0] array base, args[1] index; AuxInt element
	// size; Aux2 the static array length (0 if unknown). UB: index out
	// of bounds when Aux2 > 0 (Fig. 3 buffer overflow).
	OpIndexAddr

	// Memory. UB: null pointer dereference.
	OpLoad  // args[0] address
	OpStore // args[0] address, args[1] value

	// Call: AuxName = callee, args = arguments. Library UB conditions
	// (abs, memcpy, free, realloc) attach by name (Fig. 3 bottom).
	OpCall

	// SSA merge.
	OpPhi

	// Terminators.
	OpBr     // unconditional; Succs[0]
	OpCondBr // args[0] cond; Succs[0] = true, Succs[1] = false
	OpRet    // optional args[0]
	OpUnreachable
)

var opNames = [...]string{
	OpInvalid: "invalid", OpConst: "const", OpParam: "param",
	OpGlobal: "global", OpUnknown: "unknown", OpString: "string",
	OpAdd: "add", OpSub: "sub", OpMul: "mul", OpUDiv: "udiv",
	OpSDiv: "sdiv", OpURem: "urem", OpSRem: "srem", OpNeg: "neg",
	OpAnd: "and", OpOr: "or", OpXor: "xor", OpNot: "not",
	OpShl: "shl", OpLShr: "lshr", OpAShr: "ashr", OpICmp: "icmp",
	OpZExt: "zext", OpSExt: "sext", OpTrunc: "trunc",
	OpSelect: "select", OpPtrAdd: "ptradd", OpIndexAddr: "indexaddr",
	OpLoad: "load", OpStore: "store", OpCall: "call", OpPhi: "phi",
	OpBr: "br", OpCondBr: "condbr", OpRet: "ret",
	OpUnreachable: "unreachable",
}

func (o Op) String() string { return opNames[o] }

// Cmp is an ICmp predicate.
type Cmp int

// ICmp predicates.
const (
	CmpEq Cmp = iota
	CmpNe
	CmpULT
	CmpULE
	CmpSLT
	CmpSLE
)

var cmpNames = [...]string{"eq", "ne", "ult", "ule", "slt", "sle"}

func (c Cmp) String() string { return cmpNames[c] }

// Value is an SSA value: an instruction and its result. Phis keep
// their incoming values in Args aligned with Block.Preds.
type Value struct {
	ID      int
	Op      Op
	Width   int // result width in bits; 0 for void/terminators
	Signed  bool
	Args    []*Value
	Aux     int64  // OpConst value; OpICmp predicate; OpIndexAddr elem size
	Aux2    int64  // OpIndexAddr array length
	AuxName string // OpParam/OpGlobal/OpCall/OpUnknown/OpString
	Block   *Block
	Pos     cc.Pos
	Origin  string // macro or inlined-function origin (paper §4.2)
}

// Pred returns the ICmp predicate.
func (v *Value) Pred() Cmp { return Cmp(v.Aux) }

// IsTerminator reports whether v ends a block.
func (v *Value) IsTerminator() bool {
	switch v.Op {
	case OpBr, OpCondBr, OpRet, OpUnreachable:
		return true
	}
	return false
}

func (v *Value) String() string {
	var b strings.Builder
	if v.Width > 0 {
		fmt.Fprintf(&b, "v%d:i%d = ", v.ID, v.Width)
	}
	b.WriteString(v.Op.String())
	if v.Op == OpICmp {
		b.WriteByte(' ')
		b.WriteString(v.Pred().String())
	}
	if v.Signed {
		b.WriteString(" nsw")
	}
	if v.AuxName != "" {
		fmt.Fprintf(&b, " %q", v.AuxName)
	}
	if v.Op == OpConst {
		fmt.Fprintf(&b, " %d", v.Aux)
	}
	if v.Op == OpIndexAddr {
		fmt.Fprintf(&b, " elem=%d len=%d", v.Aux, v.Aux2)
	}
	for _, a := range v.Args {
		fmt.Fprintf(&b, " v%d", a.ID)
	}
	switch v.Op {
	case OpBr:
		fmt.Fprintf(&b, " b%d", v.Block.Succs[0].ID)
	case OpCondBr:
		fmt.Fprintf(&b, " b%d b%d", v.Block.Succs[0].ID, v.Block.Succs[1].ID)
	}
	if v.Origin != "" {
		fmt.Fprintf(&b, " !origin(%s)", v.Origin)
	}
	return b.String()
}

// Block is a basic block.
type Block struct {
	ID     int
	Instrs []*Value // non-terminator instructions in order
	Term   *Value   // the terminator
	Preds  []*Block
	Succs  []*Block
	Func   *Func
}

// All yields the block's instructions in order, then its terminator.
// It allocates nothing, and is the way to walk a block.
func (b *Block) All() iter.Seq[*Value] {
	return func(yield func(*Value) bool) {
		for _, v := range b.Instrs {
			if !yield(v) {
				return
			}
		}
		if b.Term != nil {
			yield(b.Term)
		}
	}
}

// Values returns the instructions plus the terminator in a new slice.
// It stays for the benchmark module, which counts values with it;
// everything else walks a block with All.
func (b *Block) Values() []*Value {
	if b.Term == nil {
		return b.Instrs
	}
	out := make([]*Value, 0, len(b.Instrs)+1)
	out = append(out, b.Instrs...)
	return append(out, b.Term)
}

func (b *Block) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "b%d:", b.ID)
	if len(b.Preds) > 0 {
		sb.WriteString(" ; preds:")
		for _, p := range b.Preds {
			fmt.Fprintf(&sb, " b%d", p.ID)
		}
	}
	sb.WriteByte('\n')
	for v := range b.All() {
		fmt.Fprintf(&sb, "  %s\n", v)
	}
	return sb.String()
}

// Func is a function in SSA form.
type Func struct {
	Name     string
	Params   []*Value
	Blocks   []*Block
	Entry    *Block
	RetWidth int // 0 for void
	nextID   int
}

// NewValueID allocates a fresh value ID. IDs run from 1 to the last
// one allocated, and no two values of one Func share an ID, so passes
// keep per-value state in slices indexed by Value.ID, sized by
// numValueIDs. Likewise every Block.ID is the block's index in Blocks.
func (f *Func) NewValueID() int { f.nextID++; return f.nextID }

// numValueIDs returns one more than the largest value ID allocated so
// far: the length of a slice indexed by Value.ID.
func (f *Func) numValueIDs() int { return f.nextID + 1 }

// NewBlock appends an empty block.
func (f *Func) NewBlock() *Block {
	b := &Block{ID: len(f.Blocks), Func: f}
	f.Blocks = append(f.Blocks, b)
	return b
}

func (f *Func) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "func %s(", f.Name)
	for i, p := range f.Params {
		if i > 0 {
			sb.WriteString(", ")
		}
		fmt.Fprintf(&sb, "%s:i%d", p.AuxName, p.Width)
	}
	sb.WriteString(") {\n")
	for _, b := range f.Blocks {
		sb.WriteString(b.String())
	}
	sb.WriteString("}\n")
	return sb.String()
}

// Program is a set of functions from one translation unit.
type Program struct {
	File  string
	Funcs []*Func
}

// Lookup returns the function with the given name, or nil.
func (p *Program) Lookup(name string) *Func {
	for _, f := range p.Funcs {
		if f.Name == name {
			return f
		}
	}
	return nil
}

// RemoveUnreachableBlocks drops blocks not reachable from entry and
// fixes up pred lists and phi operands.
func (f *Func) RemoveUnreachableBlocks() {
	reach := map[*Block]bool{}
	var stack []*Block
	if f.Entry != nil {
		stack = append(stack, f.Entry)
		reach[f.Entry] = true
	}
	for len(stack) > 0 {
		b := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, s := range b.Succs {
			if !reach[s] {
				reach[s] = true
				stack = append(stack, s)
			}
		}
	}
	var kept []*Block
	for _, b := range f.Blocks {
		if !reach[b] {
			continue
		}
		// Remove unreachable preds and matching phi args.
		var keepIdx []int
		for i, p := range b.Preds {
			if reach[p] {
				keepIdx = append(keepIdx, i)
			}
		}
		if len(keepIdx) != len(b.Preds) {
			newPreds := make([]*Block, len(keepIdx))
			for j, i := range keepIdx {
				newPreds[j] = b.Preds[i]
			}
			for _, v := range b.Instrs {
				if v.Op == OpPhi {
					newArgs := make([]*Value, len(keepIdx))
					for j, i := range keepIdx {
						if i < len(v.Args) {
							newArgs[j] = v.Args[i]
						}
					}
					v.Args = newArgs
				}
			}
			b.Preds = newPreds
		}
		kept = append(kept, b)
	}
	f.Blocks = kept
	for i, b := range f.Blocks {
		b.ID = i
	}
}
