package ir

import (
	"fmt"

	"repro/internal/cc"
)

// Build lowers a type-checked translation unit to IR, one Func per
// function with a body. SSA form is constructed on the fly following
// Braun et al. (simple and efficient SSA construction), which suits a
// single-pass lowering from a structured AST.
func Build(file *cc.File) (*Program, error) {
	p := &Program{File: file.Name}
	for _, fn := range file.Funcs {
		if fn.Body == nil {
			continue
		}
		f, err := buildFunc(file, fn)
		if err != nil {
			return nil, err
		}
		p.Funcs = append(p.Funcs, f)
	}
	return p, nil
}

type builder struct {
	file *cc.File
	fn   *Func
	cur  *Block

	defs       map[*Block]map[string]*Value
	sealed     map[*Block]bool
	incomplete map[*Block]map[string]*Value
	varTypes   map[string]*cc.Type // unique var key -> C type
	memVars    map[string]*Value   // address-taken/aggregate vars -> address value
	scopes     []map[string]string // source name -> unique key
	nextVarID  int

	breakTargets    []*Block
	continueTargets []*Block
}

func buildFunc(file *cc.File, decl *cc.FuncDecl) (f *Func, err error) {
	defer func() {
		if r := recover(); r != nil {
			if be, ok := r.(buildError); ok {
				f, err = nil, be.err
				return
			}
			panic(r)
		}
	}()
	b := &builder{
		file:       file,
		fn:         &Func{Name: decl.Name},
		defs:       map[*Block]map[string]*Value{},
		sealed:     map[*Block]bool{},
		incomplete: map[*Block]map[string]*Value{},
		varTypes:   map[string]*cc.Type{},
		memVars:    map[string]*Value{},
	}
	if decl.Ret.IsScalar() {
		b.fn.RetWidth = decl.Ret.BitWidth()
	}
	entry := b.fn.NewBlock()
	b.fn.Entry = entry
	b.cur = entry
	b.seal(entry)
	b.pushScope()
	for _, prm := range decl.Params {
		v := b.emit(&Value{Op: OpParam, Width: prm.Type.BitWidth(), AuxName: prm.Name, Pos: decl.Position()})
		b.fn.Params = append(b.fn.Params, v)
		if prm.Name != "" {
			key := b.declareVar(prm.Name, prm.Type)
			b.writeVar(key, b.cur, v)
		}
	}
	b.stmt(decl.Body)
	if b.cur.Term == nil {
		// Fall off the end: implicit return.
		b.cur.Term = b.val(&Value{Op: OpRet, Pos: decl.Position()})
	}
	b.popScope()
	b.fn.RemoveUnreachableBlocks()
	return b.fn, nil
}

type buildError struct{ err error }

func (b *builder) failf(pos cc.Pos, format string, args ...interface{}) {
	panic(buildError{&cc.Error{Pos: pos, Msg: fmt.Sprintf(format, args...)}})
}

// --- scopes and SSA bookkeeping -------------------------------------------

func (b *builder) pushScope() { b.scopes = append(b.scopes, map[string]string{}) }
func (b *builder) popScope()  { b.scopes = b.scopes[:len(b.scopes)-1] }

func (b *builder) declareVar(name string, t *cc.Type) string {
	b.nextVarID++
	key := fmt.Sprintf("%s#%d", name, b.nextVarID)
	b.scopes[len(b.scopes)-1][name] = key
	b.varTypes[key] = t
	return key
}

func (b *builder) resolveVar(name string) (string, bool) {
	for i := len(b.scopes) - 1; i >= 0; i-- {
		if key, ok := b.scopes[i][name]; ok {
			return key, true
		}
	}
	return "", false
}

func (b *builder) writeVar(key string, blk *Block, v *Value) {
	m := b.defs[blk]
	if m == nil {
		m = map[string]*Value{}
		b.defs[blk] = m
	}
	m[key] = v
}

func (b *builder) readVar(key string, blk *Block) *Value {
	if v, ok := b.defs[blk][key]; ok {
		return v
	}
	return b.readVarRecursive(key, blk)
}

func (b *builder) varWidth(key string) int {
	t := b.varTypes[key]
	if t == nil || !t.IsScalar() {
		return 64
	}
	return t.BitWidth()
}

func (b *builder) readVarRecursive(key string, blk *Block) *Value {
	var v *Value
	switch {
	case !b.sealed[blk]:
		v = b.newPhi(blk, b.varWidth(key))
		if b.incomplete[blk] == nil {
			b.incomplete[blk] = map[string]*Value{}
		}
		b.incomplete[blk][key] = v
	case len(blk.Preds) == 0:
		// Entry reached without a definition: the variable is
		// uninitialized here. The paper's checker deliberately does not
		// model uninitialized-use UB (§4.6); an opaque value matches.
		v = b.valIn(blk, &Value{Op: OpUnknown, Width: b.varWidth(key), AuxName: "uninit." + key})
		blk.Instrs = append([]*Value{v}, blk.Instrs...)
	case len(blk.Preds) == 1:
		v = b.readVar(key, blk.Preds[0])
	default:
		phi := b.newPhi(blk, b.varWidth(key))
		b.writeVar(key, blk, phi)
		v = b.addPhiOperands(key, phi)
	}
	b.writeVar(key, blk, v)
	return v
}

func (b *builder) newPhi(blk *Block, width int) *Value {
	v := b.valIn(blk, &Value{Op: OpPhi, Width: width})
	blk.Instrs = append([]*Value{v}, blk.Instrs...)
	return v
}

func (b *builder) addPhiOperands(key string, phi *Value) *Value {
	for _, pred := range phi.Block.Preds {
		phi.Args = append(phi.Args, b.readVar(key, pred))
	}
	return b.tryRemoveTrivialPhi(phi)
}

// tryRemoveTrivialPhi replaces a phi whose operands are all the same
// value (or the phi itself) with that value.
func (b *builder) tryRemoveTrivialPhi(phi *Value) *Value {
	var same *Value
	for _, a := range phi.Args {
		if a == phi || a == same {
			continue
		}
		if same != nil {
			return phi // not trivial
		}
		same = a
	}
	if same == nil {
		return phi // self-referential only; keep (degenerate loop)
	}
	// Rewrite uses of phi to same.
	for _, blk := range b.fn.Blocks {
		for v := range blk.All() {
			for i, a := range v.Args {
				if a == phi {
					v.Args[i] = same
				}
			}
		}
	}
	// Remove phi from its block.
	instrs := phi.Block.Instrs
	for i, v := range instrs {
		if v == phi {
			phi.Block.Instrs = append(instrs[:i:i], instrs[i+1:]...)
			break
		}
	}
	// Variable defs pointing at phi must follow.
	for _, m := range b.defs {
		for k, v := range m {
			if v == phi {
				m[k] = same
			}
		}
	}
	return same
}

func (b *builder) seal(blk *Block) {
	if b.sealed[blk] {
		return
	}
	b.sealed[blk] = true
	for key, phi := range b.incomplete[blk] {
		b.addPhiOperands(key, phi)
	}
	delete(b.incomplete, blk)
}

// --- emit helpers -----------------------------------------------------------

func (b *builder) valIn(blk *Block, v *Value) *Value {
	v.ID = b.fn.NewValueID()
	v.Block = blk
	return v
}

func (b *builder) val(v *Value) *Value { return b.valIn(b.cur, v) }

func (b *builder) emit(v *Value) *Value {
	v = b.val(v)
	b.cur.Instrs = append(b.cur.Instrs, v)
	return v
}

func (b *builder) konst(val int64, width int) *Value {
	return b.emit(&Value{Op: OpConst, Width: width, Aux: val})
}

func (b *builder) branch(to *Block, pos cc.Pos) {
	if b.cur.Term != nil {
		return
	}
	b.cur.Term = b.val(&Value{Op: OpBr, Pos: pos})
	b.cur.Succs = []*Block{to}
	to.Preds = append(to.Preds, b.cur)
}

func (b *builder) condBranch(cond *Value, t, f *Block, pos cc.Pos, origin string) {
	if b.cur.Term != nil {
		return
	}
	b.cur.Term = b.val(&Value{Op: OpCondBr, Args: []*Value{cond}, Pos: pos, Origin: origin})
	b.cur.Succs = []*Block{t, f}
	t.Preds = append(t.Preds, b.cur)
	f.Preds = append(f.Preds, b.cur)
}

// startDeadBlock begins an unreachable continuation after ret/break.
func (b *builder) startDeadBlock() {
	blk := b.fn.NewBlock()
	b.seal(blk)
	b.cur = blk
}

// coerce converts v (typed from) to the width/signedness of target.
func (b *builder) coerce(v *Value, from *cc.Type, to *cc.Type) *Value {
	if !to.IsScalar() {
		return v
	}
	tw := to.BitWidth()
	if v.Width == tw {
		return v
	}
	if v.Width > tw {
		return b.emit(&Value{Op: OpTrunc, Width: tw, Args: []*Value{v}, Pos: v.Pos, Origin: v.Origin})
	}
	op := OpZExt
	if from != nil && from.IsInteger() && from.Signed {
		op = OpSExt
	}
	return b.emit(&Value{Op: op, Width: tw, Args: []*Value{v}, Pos: v.Pos, Origin: v.Origin})
}

// asBool reduces a value to width 1 (v != 0).
func (b *builder) asBool(v *Value) *Value {
	if v.Width == 1 {
		return v
	}
	zero := b.konst(0, v.Width)
	return b.emit(&Value{Op: OpICmp, Width: 1, Aux: int64(CmpNe), Args: []*Value{v, zero}, Pos: v.Pos, Origin: v.Origin})
}

// --- statements ---------------------------------------------------------------

func (b *builder) stmt(s cc.Stmt) {
	switch s := s.(type) {
	case *cc.Block:
		b.pushScope()
		for _, st := range s.Stmts {
			b.stmt(st)
		}
		b.popScope()
	case *cc.Empty:
	case *cc.DeclStmt:
		b.declStmt(s)
	case *cc.ExprStmt:
		b.expr(s.X)
	case *cc.If:
		b.ifStmt(s)
	case *cc.While:
		b.whileStmt(s)
	case *cc.For:
		b.forStmt(s)
	case *cc.Return:
		var args []*Value
		if s.X != nil {
			v := b.expr(s.X)
			if b.fn.RetWidth > 0 {
				v = b.coerce(v, s.X.ExprType(), widthType(b.fn.RetWidth, true))
				args = []*Value{v}
			}
		}
		b.cur.Term = b.val(&Value{Op: OpRet, Args: args, Pos: s.Position()})
		b.startDeadBlock()
	case *cc.Break:
		if len(b.breakTargets) == 0 {
			b.failf(s.Position(), "break outside loop")
		}
		b.branch(b.breakTargets[len(b.breakTargets)-1], s.Position())
		b.startDeadBlock()
	case *cc.Continue:
		if len(b.continueTargets) == 0 {
			b.failf(s.Position(), "continue outside loop")
		}
		b.branch(b.continueTargets[len(b.continueTargets)-1], s.Position())
		b.startDeadBlock()
	default:
		b.failf(s.Position(), "ir: unsupported statement %T", s)
	}
}

// widthType fabricates a scalar cc.Type of the given width for coerce.
func widthType(w int, signed bool) *cc.Type {
	return &cc.Type{Kind: cc.TypeInt, Width: w, Signed: signed}
}

func (b *builder) declStmt(s *cc.DeclStmt) {
	key := b.declareVar(s.Name, s.Type)
	// Aggregates and arrays live in memory; their "value" is a stable
	// abstract address.
	if !s.Type.IsScalar() {
		addr := b.emit(&Value{Op: OpUnknown, Width: cc.PointerWidth, AuxName: "addrof." + key, Pos: s.Position()})
		b.memVars[key] = addr
		return
	}
	if s.Init != nil {
		v := b.expr(s.Init)
		v = b.coerce(v, s.Init.ExprType(), s.Type)
		b.writeVar(key, b.cur, v)
	}
}

func (b *builder) ifStmt(s *cc.If) {
	thenB := b.fn.NewBlock()
	elseB := b.fn.NewBlock()
	exitB := b.fn.NewBlock()
	cond := b.asBool(b.expr(s.Cond))
	origin := macroOriginOf(s.Cond)
	b.condBranch(cond, thenB, elseB, s.Position(), origin)
	b.seal(thenB)
	b.seal(elseB)

	b.cur = thenB
	b.stmt(s.Then)
	b.branch(exitB, s.Position())

	b.cur = elseB
	if s.Else != nil {
		b.stmt(s.Else)
	}
	b.branch(exitB, s.Position())

	b.seal(exitB)
	b.cur = exitB
}

func (b *builder) whileStmt(s *cc.While) {
	header := b.fn.NewBlock()
	body := b.fn.NewBlock()
	exit := b.fn.NewBlock()
	if s.DoWhile {
		b.branch(body, s.Position())
	} else {
		b.branch(header, s.Position())
	}

	b.cur = header // unsealed: back edge incoming
	cond := b.asBool(b.expr(s.Cond))
	b.condBranch(cond, body, exit, s.Position(), macroOriginOf(s.Cond))

	b.breakTargets = append(b.breakTargets, exit)
	b.continueTargets = append(b.continueTargets, header)
	if s.DoWhile {
		b.seal(body)
	}
	b.cur = body
	b.stmt(s.Body)
	b.branch(header, s.Position())
	b.breakTargets = b.breakTargets[:len(b.breakTargets)-1]
	b.continueTargets = b.continueTargets[:len(b.continueTargets)-1]

	b.seal(header)
	if !s.DoWhile {
		b.seal(body)
	}
	b.seal(exit)
	b.cur = exit
}

func (b *builder) forStmt(s *cc.For) {
	b.pushScope()
	defer b.popScope()
	if s.Init != nil {
		b.stmt(s.Init)
	}
	header := b.fn.NewBlock()
	body := b.fn.NewBlock()
	post := b.fn.NewBlock()
	exit := b.fn.NewBlock()
	b.branch(header, s.Position())

	b.cur = header // unsealed: back edge from post
	if s.Cond != nil {
		cond := b.asBool(b.expr(s.Cond))
		b.condBranch(cond, body, exit, s.Position(), macroOriginOf(s.Cond))
	} else {
		b.branch(body, s.Position())
	}
	b.seal(body)

	b.breakTargets = append(b.breakTargets, exit)
	b.continueTargets = append(b.continueTargets, post)
	b.cur = body
	b.stmt(s.Body)
	b.branch(post, s.Position())
	b.breakTargets = b.breakTargets[:len(b.breakTargets)-1]
	b.continueTargets = b.continueTargets[:len(b.continueTargets)-1]

	b.seal(post)
	b.cur = post
	if s.Post != nil {
		b.expr(s.Post)
	}
	b.branch(header, s.Position())
	b.seal(header)
	b.seal(exit)
	b.cur = exit
}

func macroOriginOf(e cc.Expr) string {
	type origined interface{ MacroOrigin() string }
	if o, ok := e.(origined); ok {
		return o.MacroOrigin()
	}
	return ""
}

// --- expressions ------------------------------------------------------------------

// expr lowers e and returns its value (width = e's C type width; for
// comparisons and logical operators, width 1, to be coerced by
// consumers that need an int).
func (b *builder) expr(e cc.Expr) *Value {
	switch e := e.(type) {
	case *cc.IntLit:
		return b.emitAt(e, &Value{Op: OpConst, Width: e.ExprType().BitWidth(), Aux: e.Value})
	case *cc.StrLit:
		return b.emitAt(e, &Value{Op: OpString, Width: cc.PointerWidth, AuxName: e.Value})
	case *cc.Ident:
		return b.identValue(e)
	case *cc.Unary:
		return b.unary(e)
	case *cc.Postfix:
		old, _ := b.loadLvalue(e.X)
		one := b.konst(1, old.Width)
		op := OpAdd
		if e.Op == "--" {
			op = OpSub
		}
		t := e.X.ExprType()
		var updated *Value
		if t.IsPointer() {
			off := b.konst(int64(t.Elem.SizeBytes()), cc.PointerWidth)
			if e.Op == "--" {
				off = b.emitAt(e, &Value{Op: OpNeg, Width: cc.PointerWidth, Args: []*Value{off}})
			}
			updated = b.emitAt(e, &Value{Op: OpPtrAdd, Width: cc.PointerWidth, Args: []*Value{old, off}})
		} else {
			updated = b.emitAt(e, &Value{Op: op, Width: old.Width, Signed: t.IsInteger() && t.Signed, Args: []*Value{old, one}})
		}
		b.storeLvalue(e.X, updated)
		return old
	case *cc.Binary:
		return b.binary(e)
	case *cc.Assign:
		return b.assign(e)
	case *cc.Cond:
		return b.condExpr(e)
	case *cc.Call:
		return b.call(e)
	case *cc.Index, *cc.Member:
		v, _ := b.loadLvalue(e)
		return v
	case *cc.Cast:
		x := b.expr(e.X)
		return b.coerce(x, e.X.ExprType(), e.To)
	case *cc.SizeofExpr:
		t := e.OfType
		if t == nil {
			t = e.X.ExprType()
		}
		return b.emitAt(e, &Value{Op: OpConst, Width: 64, Aux: int64(t.SizeBytes())})
	}
	b.failf(e.Position(), "ir: unsupported expression %T", e)
	return nil
}

func (b *builder) emitAt(e cc.Expr, v *Value) *Value {
	v.Pos = e.Position()
	v.Origin = macroOriginOf(e)
	return b.emitVal(v)
}

func (b *builder) emitVal(v *Value) *Value {
	v = b.val(v)
	b.cur.Instrs = append(b.cur.Instrs, v)
	return v
}

func (b *builder) identValue(e *cc.Ident) *Value {
	if e.Name == "NULL" {
		if _, ok := b.resolveVar("NULL"); !ok {
			return b.emitAt(e, &Value{Op: OpConst, Width: cc.PointerWidth, Aux: 0})
		}
	}
	if key, ok := b.resolveVar(e.Name); ok {
		if addr, isMem := b.memVars[key]; isMem {
			t := b.varTypes[key]
			if t.Kind == cc.TypeArray {
				return addr // arrays decay to their address
			}
			if t.Kind == cc.TypeStruct {
				return addr
			}
			return b.emitAt(e, &Value{Op: OpLoad, Width: t.BitWidth(), Args: []*Value{addr}})
		}
		return b.readVar(key, b.cur)
	}
	// Global variable.
	for _, g := range b.file.Vars {
		if g.Name == e.Name {
			addr := b.emitAt(e, &Value{Op: OpGlobal, Width: cc.PointerWidth, AuxName: e.Name})
			if g.Type.Kind == cc.TypeArray || g.Type.Kind == cc.TypeStruct {
				return addr
			}
			return b.emitAt(e, &Value{Op: OpLoad, Width: g.Type.BitWidth(), Args: []*Value{addr}})
		}
	}
	b.failf(e.Position(), "ir: unresolved identifier %q", e.Name)
	return nil
}

func (b *builder) unary(e *cc.Unary) *Value {
	switch e.Op {
	case "-":
		x := b.expr(e.X)
		x = b.coerce(x, e.X.ExprType(), e.ExprType())
		t := e.ExprType()
		return b.emitAt(e, &Value{Op: OpNeg, Width: x.Width, Signed: t.IsInteger() && t.Signed, Args: []*Value{x}})
	case "+":
		x := b.expr(e.X)
		return b.coerce(x, e.X.ExprType(), e.ExprType())
	case "~":
		x := b.expr(e.X)
		x = b.coerce(x, e.X.ExprType(), e.ExprType())
		return b.emitAt(e, &Value{Op: OpNot, Width: x.Width, Args: []*Value{x}})
	case "!":
		x := b.asBool(b.expr(e.X))
		zero := b.konst(0, 1)
		return b.emitAt(e, &Value{Op: OpICmp, Width: 1, Aux: int64(CmpEq), Args: []*Value{x, zero}})
	case "*":
		addr := b.expr(e.X)
		t := e.ExprType()
		if !t.IsScalar() {
			return addr // *p on aggregate: address
		}
		return b.emitAt(e, &Value{Op: OpLoad, Width: t.BitWidth(), Args: []*Value{addr}})
	case "&":
		addr, ok := b.addressOf(e.X)
		if !ok {
			b.failf(e.Position(), "ir: cannot take address of %T", e.X)
		}
		return addr
	case "++", "--":
		old, _ := b.loadLvalue(e.X)
		t := e.X.ExprType()
		var updated *Value
		if t.IsPointer() {
			off := b.konst(int64(t.Elem.SizeBytes()), cc.PointerWidth)
			if e.Op == "--" {
				off = b.emitAt(e, &Value{Op: OpNeg, Width: cc.PointerWidth, Args: []*Value{off}})
			}
			updated = b.emitAt(e, &Value{Op: OpPtrAdd, Width: cc.PointerWidth, Args: []*Value{old, off}})
		} else {
			one := b.konst(1, old.Width)
			op := OpAdd
			if e.Op == "--" {
				op = OpSub
			}
			updated = b.emitAt(e, &Value{Op: op, Width: old.Width, Signed: t.IsInteger() && t.Signed, Args: []*Value{old, one}})
		}
		b.storeLvalue(e.X, updated)
		return updated
	}
	b.failf(e.Position(), "ir: unsupported unary %q", e.Op)
	return nil
}

// addressOf lowers &x; for SSA variables this demotes the variable to
// a memory variable for the rest of the function (a simplification:
// prior SSA uses keep their values, which preserves the analysis
// semantics for the corpus, where & appears before other uses).
func (b *builder) addressOf(e cc.Expr) (*Value, bool) {
	switch e := e.(type) {
	case *cc.Ident:
		key, ok := b.resolveVar(e.Name)
		if !ok {
			// Global.
			for _, g := range b.file.Vars {
				if g.Name == e.Name {
					return b.emitAt(e, &Value{Op: OpGlobal, Width: cc.PointerWidth, AuxName: e.Name}), true
				}
			}
			return nil, false
		}
		addr, isMem := b.memVars[key]
		if !isMem {
			addr = b.emitAt(e, &Value{Op: OpUnknown, Width: cc.PointerWidth, AuxName: "addrof." + key})
			b.memVars[key] = addr
			// Flush the current SSA value into memory so later loads
			// observe it.
			if cur, ok := b.defs[b.cur][key]; ok {
				b.emitAt(e, &Value{Op: OpStore, Args: []*Value{addr, cur}})
			}
		}
		return addr, true
	case *cc.Unary:
		if e.Op == "*" {
			return b.expr(e.X), true
		}
	case *cc.Index:
		return b.indexAddr(e), true
	case *cc.Member:
		return b.memberAddr(e), true
	}
	return nil, false
}

func (b *builder) indexAddr(e *cc.Index) *Value {
	base := b.expr(e.X)
	idx := b.expr(e.I)
	idx = b.coerce(idx, e.I.ExprType(), widthType(cc.PointerWidth, e.I.ExprType().IsInteger() && e.I.ExprType().Signed))
	xt := e.X.ExprType()
	var elem *cc.Type
	arrLen := int64(0)
	switch xt.Kind {
	case cc.TypeArray:
		elem = xt.Elem
		arrLen = int64(xt.ArrayLen)
	case cc.TypePointer:
		elem = xt.Elem
	default:
		b.failf(e.Position(), "ir: indexing %v", xt)
	}
	return b.emitAt(e, &Value{
		Op: OpIndexAddr, Width: cc.PointerWidth,
		Args: []*Value{base, idx},
		Aux:  int64(elem.SizeBytes()), Aux2: arrLen,
	})
}

func (b *builder) memberAddr(e *cc.Member) *Value {
	var base *Value
	var st *cc.Type
	if e.Arrow {
		base = b.expr(e.X)
		st = e.X.ExprType().Elem
	} else {
		a, ok := b.addressOf(e.X)
		if !ok {
			// rvalue struct (e.g. returned): base is its address value
			base = b.expr(e.X)
		} else {
			base = a
		}
		st = e.X.ExprType()
	}
	off, _, ok := st.FieldOffset(e.Field)
	if !ok {
		b.failf(e.Position(), "ir: no field %q", e.Field)
	}
	offV := b.konst(int64(off), cc.PointerWidth)
	return b.emitAt(e, &Value{Op: OpPtrAdd, Width: cc.PointerWidth, Args: []*Value{base, offV}})
}

// loadLvalue returns the current value of an lvalue and a token for
// storeLvalue.
func (b *builder) loadLvalue(e cc.Expr) (*Value, *cc.Type) {
	t := e.ExprType()
	switch e := e.(type) {
	case *cc.Ident:
		return b.identValue(e), t
	case *cc.Unary:
		if e.Op == "*" {
			addr := b.expr(e.X)
			return b.emitAt(e, &Value{Op: OpLoad, Width: t.BitWidth(), Args: []*Value{addr}}), t
		}
	case *cc.Index:
		addr := b.indexAddr(e)
		if !t.IsScalar() {
			return addr, t
		}
		return b.emitAt(e, &Value{Op: OpLoad, Width: t.BitWidth(), Args: []*Value{addr}}), t
	case *cc.Member:
		addr := b.memberAddr(e)
		if !t.IsScalar() {
			return addr, t
		}
		return b.emitAt(e, &Value{Op: OpLoad, Width: t.BitWidth(), Args: []*Value{addr}}), t
	case *cc.Cast:
		v, _ := b.loadLvalue(e.X)
		return b.coerce(v, e.X.ExprType(), e.To), t
	}
	b.failf(e.Position(), "ir: not an lvalue: %T", e)
	return nil, nil
}

func (b *builder) storeLvalue(e cc.Expr, v *Value) {
	switch e := e.(type) {
	case *cc.Ident:
		key, ok := b.resolveVar(e.Name)
		if ok {
			if addr, isMem := b.memVars[key]; isMem {
				b.emitAt(e, &Value{Op: OpStore, Args: []*Value{addr, v}})
				return
			}
			b.writeVar(key, b.cur, v)
			return
		}
		for _, g := range b.file.Vars {
			if g.Name == e.Name {
				addr := b.emitAt(e, &Value{Op: OpGlobal, Width: cc.PointerWidth, AuxName: e.Name})
				b.emitAt(e, &Value{Op: OpStore, Args: []*Value{addr, v}})
				return
			}
		}
		b.failf(e.Position(), "ir: unresolved store target %q", e.Name)
	case *cc.Unary:
		if e.Op == "*" {
			addr := b.expr(e.X)
			b.emitAt(e, &Value{Op: OpStore, Args: []*Value{addr, v}})
			return
		}
		b.failf(e.Position(), "ir: bad store target")
	case *cc.Index:
		addr := b.indexAddr(e)
		b.emitAt(e, &Value{Op: OpStore, Args: []*Value{addr, v}})
	case *cc.Member:
		addr := b.memberAddr(e)
		b.emitAt(e, &Value{Op: OpStore, Args: []*Value{addr, v}})
	case *cc.Cast:
		b.storeLvalue(e.X, v)
	default:
		b.failf(e.Position(), "ir: bad store target %T", e)
	}
}

func (b *builder) assign(e *cc.Assign) *Value {
	if e.Op == "" {
		v := b.expr(e.Y)
		v = b.coerce(v, e.Y.ExprType(), e.X.ExprType())
		b.storeLvalue(e.X, v)
		return v
	}
	// Compound assignment: x op= y.
	old, _ := b.loadLvalue(e.X)
	y := b.expr(e.Y)
	xt, yt := e.X.ExprType(), e.Y.ExprType()
	var v *Value
	if xt.IsPointer() {
		v = b.pointerArith(e, e.Op, old, y, xt, yt)
	} else {
		common := cc.UsualArithmeticConversions(xt, yt)
		lx := b.coerce(old, xt, common)
		ly := b.coerce(y, yt, common)
		if e.Op == "<<" || e.Op == ">>" {
			common = cc.Promote(xt)
			lx = b.coerce(old, xt, common)
			ly = b.coerce(y, yt, cc.Promote(yt))
		}
		v = b.arith(e, e.Op, lx, ly, common)
	}
	v = b.coerce(v, nil, xt)
	b.storeLvalue(e.X, v)
	return v
}

func (b *builder) condExpr(e *cc.Cond) *Value {
	thenB := b.fn.NewBlock()
	elseB := b.fn.NewBlock()
	exitB := b.fn.NewBlock()
	c := b.asBool(b.expr(e.C))
	b.condBranch(c, thenB, elseB, e.Position(), macroOriginOf(e))
	b.seal(thenB)
	b.seal(elseB)
	t := e.ExprType()

	b.cur = thenB
	x := b.expr(e.X)
	x = b.coerce(x, e.X.ExprType(), t)
	thenOut := b.cur
	b.branch(exitB, e.Position())

	b.cur = elseB
	y := b.expr(e.Y)
	y = b.coerce(y, e.Y.ExprType(), t)
	b.branch(exitB, e.Position())

	b.seal(exitB)
	b.cur = exitB
	w := 64
	if t.IsScalar() {
		w = t.BitWidth()
	}
	phi := b.val(&Value{Op: OpPhi, Width: w, Pos: e.Position(), Origin: macroOriginOf(e)})
	// Operand order must match exitB.Preds.
	for _, p := range exitB.Preds {
		if p == thenOut {
			phi.Args = append(phi.Args, x)
		} else {
			phi.Args = append(phi.Args, y)
		}
	}
	exitB.Instrs = append([]*Value{phi}, exitB.Instrs...)
	return phi
}

func (b *builder) binary(e *cc.Binary) *Value {
	switch e.Op {
	case ",":
		b.expr(e.X)
		return b.expr(e.Y)
	case "&&", "||":
		return b.shortCircuit(e)
	}
	xt, yt := e.X.ExprType(), e.Y.ExprType()
	x := b.expr(e.X)
	y := b.expr(e.Y)

	// Pointer arithmetic and comparisons.
	if xt.IsPointer() || yt.IsPointer() || xt.Kind == cc.TypeArray || yt.Kind == cc.TypeArray {
		return b.pointerBinary(e, x, y)
	}

	switch e.Op {
	case "==", "!=", "<", ">", "<=", ">=":
		common := cc.UsualArithmeticConversions(xt, yt)
		lx := b.coerce(x, xt, common)
		ly := b.coerce(y, yt, common)
		return b.icmp(e, e.Op, lx, ly, common.Signed)
	case "<<", ">>":
		lt := cc.Promote(xt)
		lx := b.coerce(x, xt, lt)
		ly := b.coerce(y, yt, cc.Promote(yt))
		// Shift amount coerced to the left operand's width for the IR.
		ly = b.coerce(ly, cc.Promote(yt), lt)
		op := OpShl
		if e.Op == ">>" {
			if lt.Signed {
				op = OpAShr
			} else {
				op = OpLShr
			}
		}
		return b.emitAt(e, &Value{Op: op, Width: lx.Width, Signed: lt.Signed, Args: []*Value{lx, ly}})
	default:
		common := cc.UsualArithmeticConversions(xt, yt)
		lx := b.coerce(x, xt, common)
		ly := b.coerce(y, yt, common)
		return b.arith(e, e.Op, lx, ly, common)
	}
}

func (b *builder) arith(e cc.Expr, op string, x, y *Value, t *cc.Type) *Value {
	signed := t.IsInteger() && t.Signed
	var o Op
	switch op {
	case "+":
		o = OpAdd
	case "-":
		o = OpSub
	case "*":
		o = OpMul
	case "/":
		if signed {
			o = OpSDiv
		} else {
			o = OpUDiv
		}
	case "%":
		if signed {
			o = OpSRem
		} else {
			o = OpURem
		}
	case "&":
		o = OpAnd
	case "|":
		o = OpOr
	case "^":
		o = OpXor
	case "<<":
		o = OpShl
	case ">>":
		if signed {
			o = OpAShr
		} else {
			o = OpLShr
		}
	default:
		b.failf(e.Position(), "ir: unsupported arithmetic %q", op)
	}
	return b.emitAt(e, &Value{Op: o, Width: x.Width, Signed: signed, Args: []*Value{x, y}})
}

func (b *builder) icmp(e cc.Expr, op string, x, y *Value, signed bool) *Value {
	var pred Cmp
	swap := false
	switch op {
	case "==":
		pred = CmpEq
	case "!=":
		pred = CmpNe
	case "<":
		pred = CmpSLT
	case "<=":
		pred = CmpSLE
	case ">":
		pred, swap = CmpSLT, true
	case ">=":
		pred, swap = CmpSLE, true
	}
	if !signed {
		switch pred {
		case CmpSLT:
			pred = CmpULT
		case CmpSLE:
			pred = CmpULE
		}
	}
	if swap {
		x, y = y, x
	}
	return b.emitAt(e, &Value{Op: OpICmp, Width: 1, Aux: int64(pred), Args: []*Value{x, y}})
}

// pointerBinary lowers +, -, and comparisons involving pointers.
func (b *builder) pointerBinary(e *cc.Binary, x, y *Value) *Value {
	xt, yt := e.X.ExprType(), e.Y.ExprType()
	switch e.Op {
	case "+", "-":
		if xt.IsPointer() || xt.Kind == cc.TypeArray {
			if yt.IsPointer() || yt.Kind == cc.TypeArray {
				// pointer - pointer
				diff := b.emitAt(e, &Value{Op: OpSub, Width: cc.PointerWidth, Args: []*Value{x, y}})
				size := int64(elemType(xt).SizeBytes())
				if size > 1 {
					sz := b.konst(size, cc.PointerWidth)
					return b.emitAt(e, &Value{Op: OpSDiv, Width: cc.PointerWidth, Args: []*Value{diff, sz}})
				}
				return diff
			}
			return b.pointerArith(e, e.Op, x, y, xt, yt)
		}
		// int + pointer
		return b.pointerArith(e, e.Op, y, x, yt, xt)
	case "==", "!=", "<", ">", "<=", ">=":
		// Pointer comparisons are unsigned on addresses.
		lx := b.coerce(x, xt, widthType(cc.PointerWidth, false))
		ly := b.coerce(y, yt, widthType(cc.PointerWidth, false))
		return b.icmp(e, e.Op, lx, ly, false)
	}
	b.failf(e.Position(), "ir: unsupported pointer operation %q", e.Op)
	return nil
}

func elemType(t *cc.Type) *cc.Type {
	if t.Elem != nil {
		return t.Elem
	}
	return cc.Char
}

// pointerArith emits ptr ± idx*size as OpPtrAdd, which carries the
// pointer-overflow UB condition.
func (b *builder) pointerArith(e cc.Expr, op string, ptr, idx *Value, pt, it *cc.Type) *Value {
	signedIdx := it.IsInteger() && it.Signed
	off := b.coerce(idx, it, widthType(cc.PointerWidth, signedIdx))
	size := int64(elemType(pt).SizeBytes())
	if size > 1 {
		sz := b.konst(size, cc.PointerWidth)
		off = b.emitAt(e, &Value{Op: OpMul, Width: cc.PointerWidth, Args: []*Value{off, sz}})
	}
	if op == "-" {
		off = b.emitAt(e, &Value{Op: OpNeg, Width: cc.PointerWidth, Args: []*Value{off}})
	}
	return b.emitAt(e, &Value{Op: OpPtrAdd, Width: cc.PointerWidth, Args: []*Value{ptr, off}})
}

// shortCircuit lowers && and || with control flow so each operand gets
// its own reachability condition — exactly what STACK's per-fragment
// analysis needs for chained sanity checks (e.g. paper Fig. 12).
func (b *builder) shortCircuit(e *cc.Binary) *Value {
	rhsB := b.fn.NewBlock()
	exitB := b.fn.NewBlock()
	x := b.asBool(b.expr(e.X))
	lhsOut := b.cur
	if e.Op == "&&" {
		b.condBranch(x, rhsB, exitB, e.Position(), macroOriginOf(e))
	} else {
		b.condBranch(x, exitB, rhsB, e.Position(), macroOriginOf(e))
	}
	b.seal(rhsB)
	b.cur = rhsB
	y := b.asBool(b.expr(e.Y))
	b.branch(exitB, e.Position())
	b.seal(exitB)
	b.cur = exitB
	phi := b.val(&Value{Op: OpPhi, Width: 1, Pos: e.Position(), Origin: macroOriginOf(e)})
	short := int64(0)
	if e.Op == "||" {
		short = 1
	}
	for _, p := range exitB.Preds {
		if p == lhsOut {
			c := b.val(&Value{Op: OpConst, Width: 1, Aux: short})
			exitB.Instrs = append(exitB.Instrs, c)
			phi.Args = append(phi.Args, c)
		} else {
			phi.Args = append(phi.Args, y)
		}
	}
	exitB.Instrs = append([]*Value{phi}, exitB.Instrs...)
	return phi
}

func (b *builder) call(e *cc.Call) *Value {
	var args []*Value
	for _, a := range e.Args {
		v := b.expr(a)
		// Scalars pass as-is; aggregates pass their address.
		args = append(args, v)
	}
	t := e.ExprType()
	w := 0
	if t.IsScalar() {
		w = t.BitWidth()
	}
	return b.emitAt(e, &Value{Op: OpCall, Width: w, AuxName: e.Func, Args: args})
}
