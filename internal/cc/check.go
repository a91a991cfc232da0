package cc

import "fmt"

// Checker performs semantic analysis: it resolves identifiers,
// applies the C conversion rules, and annotates every expression with
// its type. It is deliberately lenient in the places real systems code
// is sloppy (implicit declarations, int/pointer mixing in conditions),
// because the corpus this frontend exists to analyze is systems code.
type Checker struct {
	file    *File
	globals map[string]*Type
	funcs   map[string]*FuncDecl
	scopes  []map[string]*Type
	curFunc *FuncDecl
}

// BuiltinFuncs are the library functions the analysis knows about
// (paper Fig. 3 library rows, plus common allocators and string
// helpers appearing in the paper's examples).
var BuiltinFuncs = map[string]*Type{
	"abs":            {Kind: TypeFunc, Ret: Int, Params: []*Type{Int}},
	"labs":           {Kind: TypeFunc, Ret: Long, Params: []*Type{Long}},
	"memcpy":         {Kind: TypeFunc, Ret: PointerTo(Void), Params: []*Type{PointerTo(Void), PointerTo(Void), ULong}},
	"memmove":        {Kind: TypeFunc, Ret: PointerTo(Void), Params: []*Type{PointerTo(Void), PointerTo(Void), ULong}},
	"memset":         {Kind: TypeFunc, Ret: PointerTo(Void), Params: []*Type{PointerTo(Void), Int, ULong}},
	"malloc":         {Kind: TypeFunc, Ret: PointerTo(Void), Params: []*Type{ULong}},
	"calloc":         {Kind: TypeFunc, Ret: PointerTo(Void), Params: []*Type{ULong, ULong}},
	"realloc":        {Kind: TypeFunc, Ret: PointerTo(Void), Params: []*Type{PointerTo(Void), ULong}},
	"free":           {Kind: TypeFunc, Ret: Void, Params: []*Type{PointerTo(Void)}},
	"strchr":         {Kind: TypeFunc, Ret: PointerTo(Char), Params: []*Type{PointerTo(Char), Int}},
	"strlen":         {Kind: TypeFunc, Ret: ULong, Params: []*Type{PointerTo(Char)}},
	"simple_strtoul": {Kind: TypeFunc, Ret: ULong, Params: []*Type{PointerTo(Char), PointerTo(PointerTo(Char)), Int}},
}

// Check type-checks the file in place; an error names the file.
func Check(f *File) error {
	c := &Checker{
		file:    f,
		globals: make(map[string]*Type),
		funcs:   make(map[string]*FuncDecl),
	}
	for _, v := range f.Vars {
		c.globals[v.Name] = v.Type
	}
	for _, fn := range f.Funcs {
		c.funcs[fn.Name] = fn
	}
	for _, v := range f.Vars {
		if v.Init != nil {
			if _, err := c.expr(v.Init); err != nil {
				return inFile(err, f.Name)
			}
		}
	}
	for _, fn := range f.Funcs {
		if fn.Body == nil {
			continue
		}
		if err := c.checkFunc(fn); err != nil {
			return inFile(err, f.Name)
		}
	}
	return nil
}

func (c *Checker) checkFunc(fn *FuncDecl) error {
	c.curFunc = fn
	c.scopes = []map[string]*Type{{}}
	for _, p := range fn.Params {
		if p.Name != "" {
			c.scopes[0][p.Name] = p.Type
		}
	}
	err := c.stmt(fn.Body)
	c.scopes = nil
	c.curFunc = nil
	return err
}

func (c *Checker) push() { c.scopes = append(c.scopes, map[string]*Type{}) }
func (c *Checker) pop()  { c.scopes = c.scopes[:len(c.scopes)-1] }

func (c *Checker) declare(name string, t *Type) {
	c.scopes[len(c.scopes)-1][name] = t
}

func (c *Checker) lookup(name string) (*Type, bool) {
	for i := len(c.scopes) - 1; i >= 0; i-- {
		if t, ok := c.scopes[i][name]; ok {
			return t, true
		}
	}
	if t, ok := c.globals[name]; ok {
		return t, true
	}
	return nil, false
}

func (c *Checker) stmt(s Stmt) error {
	switch s := s.(type) {
	case *Block:
		c.push()
		defer c.pop()
		for _, st := range s.Stmts {
			if err := c.stmt(st); err != nil {
				return err
			}
		}
		return nil
	case *DeclList:
		for _, d := range s.Decls {
			if err := c.stmt(d); err != nil {
				return err
			}
		}
		return nil
	case *DeclStmt:
		if s.Init != nil {
			if _, err := c.expr(s.Init); err != nil {
				return err
			}
		}
		c.declare(s.Name, s.Type)
		return nil
	case *ExprStmt:
		_, err := c.expr(s.X)
		return err
	case *If:
		t, err := c.expr(s.Cond)
		if err != nil {
			return err
		}
		if !t.IsScalar() {
			return errf(s.Cond.Position(), "if condition has non-scalar type %v", t)
		}
		if err := c.stmt(s.Then); err != nil {
			return err
		}
		if s.Else != nil {
			return c.stmt(s.Else)
		}
		return nil
	case *While:
		t, err := c.expr(s.Cond)
		if err != nil {
			return err
		}
		if !t.IsScalar() {
			return errf(s.Cond.Position(), "loop condition has non-scalar type %v", t)
		}
		return c.stmt(s.Body)
	case *For:
		c.push()
		defer c.pop()
		if s.Init != nil {
			if err := c.stmt(s.Init); err != nil {
				return err
			}
		}
		if s.Cond != nil {
			if _, err := c.expr(s.Cond); err != nil {
				return err
			}
		}
		if s.Post != nil {
			if _, err := c.expr(s.Post); err != nil {
				return err
			}
		}
		return c.stmt(s.Body)
	case *Return:
		if s.X != nil {
			if _, err := c.expr(s.X); err != nil {
				return err
			}
		}
		return nil
	case *Break, *Continue, *Empty:
		return nil
	}
	return fmt.Errorf("cc: unknown statement %T", s)
}

// expr type-checks e and returns its type.
func (c *Checker) expr(e Expr) (*Type, error) {
	t, err := c.exprInner(e)
	if err != nil {
		return nil, err
	}
	e.setType(t)
	return t, nil
}

func (c *Checker) exprInner(e Expr) (*Type, error) {
	switch e := e.(type) {
	case *IntLit:
		switch {
		case e.Unsigned && e.Long:
			return ULong, nil
		case e.Unsigned:
			if uint64(e.Value) > 1<<32-1 {
				return ULong, nil
			}
			return UInt, nil
		case e.Long:
			return Long, nil
		default:
			if e.Value > 1<<31-1 || e.Value < -(1<<31) {
				return Long, nil
			}
			return Int, nil
		}
	case *StrLit:
		return PointerTo(Char), nil
	case *Ident:
		if t, ok := c.lookup(e.Name); ok {
			return t, nil
		}
		if e.Name == "NULL" {
			return PointerTo(Void), nil
		}
		return nil, errf(e.Position(), "undeclared identifier %q", e.Name)
	case *Unary:
		xt, err := c.expr(e.X)
		if err != nil {
			return nil, err
		}
		switch e.Op {
		case "-", "+", "~":
			if !xt.IsArithmetic() {
				return nil, errf(e.Position(), "unary %s on non-arithmetic type %v", e.Op, xt)
			}
			return Promote(xt), nil
		case "!":
			if !xt.IsScalar() {
				return nil, errf(e.Position(), "! on non-scalar type %v", xt)
			}
			return Int, nil
		case "*":
			switch xt.Kind {
			case TypePointer:
				return xt.Elem, nil
			case TypeArray:
				return xt.Elem, nil
			}
			return nil, errf(e.Position(), "dereference of non-pointer type %v", xt)
		case "&":
			if at, ok := xt.decayedArray(); ok {
				return PointerTo(at), nil
			}
			return PointerTo(xt), nil
		case "++", "--":
			if !xt.IsScalar() {
				return nil, errf(e.Position(), "%s on non-scalar type %v", e.Op, xt)
			}
			return xt, nil
		}
		return nil, errf(e.Position(), "unknown unary operator %q", e.Op)
	case *Postfix:
		xt, err := c.expr(e.X)
		if err != nil {
			return nil, err
		}
		if !xt.IsScalar() {
			return nil, errf(e.Position(), "%s on non-scalar type %v", e.Op, xt)
		}
		return xt, nil
	case *Binary:
		return c.binary(e)
	case *Assign:
		xt, err := c.expr(e.X)
		if err != nil {
			return nil, err
		}
		if !isLvalue(e.X) {
			return nil, errf(e.Position(), "assignment to non-lvalue")
		}
		if _, err := c.expr(e.Y); err != nil {
			return nil, err
		}
		return xt, nil
	case *Cond:
		ct, err := c.expr(e.C)
		if err != nil {
			return nil, err
		}
		if !ct.IsScalar() {
			return nil, errf(e.Position(), "?: condition has non-scalar type %v", ct)
		}
		xt, err := c.expr(e.X)
		if err != nil {
			return nil, err
		}
		yt, err := c.expr(e.Y)
		if err != nil {
			return nil, err
		}
		xt = decay(xt)
		yt = decay(yt)
		if xt.IsArithmetic() && yt.IsArithmetic() {
			return UsualArithmeticConversions(xt, yt), nil
		}
		if xt.IsPointer() {
			return xt, nil
		}
		return yt, nil
	case *Call:
		return c.call(e)
	case *Index:
		xt, err := c.expr(e.X)
		if err != nil {
			return nil, err
		}
		it, err := c.expr(e.I)
		if err != nil {
			return nil, err
		}
		if !it.IsInteger() {
			return nil, errf(e.Position(), "array index has non-integer type %v", it)
		}
		switch xt.Kind {
		case TypePointer, TypeArray:
			return xt.Elem, nil
		}
		return nil, errf(e.Position(), "indexing non-pointer type %v", xt)
	case *Member:
		xt, err := c.expr(e.X)
		if err != nil {
			return nil, err
		}
		st := xt
		if e.Arrow {
			if !xt.IsPointer() {
				return nil, errf(e.Position(), "-> on non-pointer type %v", xt)
			}
			st = xt.Elem
		}
		if st.Kind != TypeStruct {
			return nil, errf(e.Position(), "member access on non-struct type %v", st)
		}
		_, ft, ok := st.FieldOffset(e.Field)
		if !ok {
			return nil, errf(e.Position(), "no field %q in %v", e.Field, st)
		}
		return ft, nil
	case *Cast:
		if _, err := c.expr(e.X); err != nil {
			return nil, err
		}
		return e.To, nil
	case *SizeofExpr:
		if e.X != nil {
			if _, err := c.expr(e.X); err != nil {
				return nil, err
			}
		}
		return ULong, nil
	}
	return nil, fmt.Errorf("cc: unknown expression %T", e)
}

func (c *Checker) binary(e *Binary) (*Type, error) {
	xt, err := c.expr(e.X)
	if err != nil {
		return nil, err
	}
	yt, err := c.expr(e.Y)
	if err != nil {
		return nil, err
	}
	xt, yt = decay(xt), decay(yt)
	switch e.Op {
	case ",":
		return yt, nil
	case "&&", "||":
		if !xt.IsScalar() || !yt.IsScalar() {
			return nil, errf(e.Position(), "%s on non-scalar operands", e.Op)
		}
		return Int, nil
	case "==", "!=", "<", ">", "<=", ">=":
		if xt.IsScalar() && yt.IsScalar() {
			return Int, nil
		}
		return nil, errf(e.Position(), "comparison of %v and %v", xt, yt)
	case "<<", ">>":
		if !xt.IsInteger() || !yt.IsInteger() {
			return nil, errf(e.Position(), "shift of %v by %v", xt, yt)
		}
		return Promote(xt), nil
	case "+":
		if xt.IsPointer() && yt.IsInteger() {
			return xt, nil
		}
		if xt.IsInteger() && yt.IsPointer() {
			return yt, nil
		}
		fallthrough
	case "*", "/", "%", "&", "|", "^":
		if e.Op == "-" || e.Op == "+" {
			break
		}
		if !xt.IsArithmetic() || !yt.IsArithmetic() {
			return nil, errf(e.Position(), "%s on %v and %v", e.Op, xt, yt)
		}
		return UsualArithmeticConversions(xt, yt), nil
	case "-":
		if xt.IsPointer() && yt.IsPointer() {
			return Long, nil // ptrdiff_t
		}
		if xt.IsPointer() && yt.IsInteger() {
			return xt, nil
		}
	}
	if xt.IsArithmetic() && yt.IsArithmetic() {
		return UsualArithmeticConversions(xt, yt), nil
	}
	return nil, errf(e.Position(), "invalid operands to %s: %v and %v", e.Op, xt, yt)
}

func (c *Checker) call(e *Call) (*Type, error) {
	for _, a := range e.Args {
		if _, err := c.expr(a); err != nil {
			return nil, err
		}
	}
	if fn, ok := c.funcs[e.Func]; ok {
		return fn.Ret, nil
	}
	if ft, ok := BuiltinFuncs[e.Func]; ok {
		return ft.Ret, nil
	}
	// Implicit declaration (C89): assume returning int. Real systems
	// code in the corpus calls externs freely.
	return Int, nil
}

// isLvalue reports whether e can be assigned to.
func isLvalue(e Expr) bool {
	switch e := e.(type) {
	case *Ident:
		return true
	case *Unary:
		return e.Op == "*"
	case *Index, *Member:
		return true
	case *Cast:
		return isLvalue(e.X) // lenient; some kernel code does this
	}
	return false
}

// decay converts array types to pointer types in rvalue contexts.
func decay(t *Type) *Type {
	if t.Kind == TypeArray {
		return PointerTo(t.Elem)
	}
	return t
}

// decayedArray returns the decayed element pointer for arrays.
func (t *Type) decayedArray() (*Type, bool) {
	if t.Kind == TypeArray {
		return t.Elem, true
	}
	return nil, false
}
