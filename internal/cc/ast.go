package cc

// This file defines the abstract syntax tree. Every expression node
// carries the position of its principal token and, when produced by a
// macro expansion, the originating macro name (Token.Origin propagated
// by the parser) — the information STACK's report generator uses to
// suppress warnings about compiler-generated code (paper §4.2/§4.5).

// Node is implemented by all AST nodes.
type Node interface {
	Position() Pos
}

type node struct {
	Pos    Pos
	Origin string // macro name if macro-expanded
}

func (n node) Position() Pos { return n.Pos }

// MacroOrigin returns the macro that produced this node, or "".
func (n node) MacroOrigin() string { return n.Origin }

// --- Expressions ----------------------------------------------------------

// Expr is implemented by all expression nodes. After type checking,
// ExprType returns the node's C type.
type Expr interface {
	Node
	ExprType() *Type
	setType(*Type)
	isExpr()
}

type exprNode struct {
	node
	Type *Type
}

func (e *exprNode) ExprType() *Type { return e.Type }
func (e *exprNode) setType(t *Type) { e.Type = t }
func (e *exprNode) isExpr()         {}

// IntLit is an integer or character literal.
type IntLit struct {
	exprNode
	Value int64
	// Unsigned/Long suffixes recorded during parsing to pick the type.
	Unsigned bool
	Long     bool
}

// StrLit is a string literal; it has type char* in this subset.
type StrLit struct {
	exprNode
	Value string
}

// Ident is a variable or function reference.
type Ident struct {
	exprNode
	Name string
}

// Unary is a prefix unary operation: - + ! ~ * & ++ --.
type Unary struct {
	exprNode
	Op string
	X  Expr
}

// Postfix is x++ or x--.
type Postfix struct {
	exprNode
	Op string
	X  Expr
}

// Binary is a binary operation (arithmetic, relational, logical,
// bitwise, shifts). Assignment is Assign; && and || are here with
// short-circuit semantics handled by the IR builder.
type Binary struct {
	exprNode
	Op   string
	X, Y Expr
}

// Assign is x = y or a compound assignment (op nonempty, e.g. "+").
type Assign struct {
	exprNode
	Op   string // "" for plain =
	X, Y Expr
}

// Cond is c ? a : b.
type Cond struct {
	exprNode
	C, X, Y Expr
}

// Call is a function call; in this subset callees are identifiers.
type Call struct {
	exprNode
	Func string
	Args []Expr
}

// Index is a[i].
type Index struct {
	exprNode
	X, I Expr
}

// Member is x.f (Arrow false) or x->f (Arrow true).
type Member struct {
	exprNode
	X     Expr
	Field string
	Arrow bool
}

// Cast is (T)x.
type Cast struct {
	exprNode
	To *Type
	X  Expr
}

// SizeofExpr is sizeof(T) or sizeof expr; resolved to a constant by
// the type checker.
type SizeofExpr struct {
	exprNode
	OfType *Type // non-nil for sizeof(T)
	X      Expr  // non-nil for sizeof expr
}

// --- Statements -----------------------------------------------------------

// Stmt is implemented by all statement nodes.
type Stmt interface {
	Node
	isStmt()
}

type stmtNode struct{ node }

func (s stmtNode) isStmt() {}

// Block is { ... }.
type Block struct {
	stmtNode
	Stmts []Stmt
}

// DeclList is a local declaration with several declarators, such as
// "int a, b = 1;". Its names are declared in the enclosing scope.
type DeclList struct {
	stmtNode
	Decls []*DeclStmt
}

// DeclStmt declares a local variable, optionally initialized.
type DeclStmt struct {
	stmtNode
	Name string
	Type *Type
	Init Expr // may be nil
}

// ExprStmt evaluates an expression for side effects.
type ExprStmt struct {
	stmtNode
	X Expr
}

// If is if (Cond) Then else Else.
type If struct {
	stmtNode
	Cond Expr
	Then Stmt
	Else Stmt // may be nil
}

// While is while (Cond) Body; DoWhile distinguishes do { } while.
type While struct {
	stmtNode
	Cond    Expr
	Body    Stmt
	DoWhile bool
}

// For is for (Init; Cond; Post) Body; any part may be nil.
type For struct {
	stmtNode
	Init Stmt // DeclStmt, DeclList or ExprStmt
	Cond Expr
	Post Expr
	Body Stmt
}

// Return is return [expr].
type Return struct {
	stmtNode
	X Expr // may be nil
}

// Break and Continue are loop controls.
type Break struct{ stmtNode }

// Continue continues the innermost loop.
type Continue struct{ stmtNode }

// Empty is a lone semicolon.
type Empty struct{ stmtNode }

// --- Top level --------------------------------------------------------------

// Param is a function parameter.
type Param struct {
	Name string
	Type *Type
}

// FuncDecl is a function definition.
type FuncDecl struct {
	node
	Name   string
	Ret    *Type
	Params []Param
	Body   *Block // nil for a prototype
	Inline bool   // declared inline (inlining candidate)
	Static bool
}

// VarDecl is a global variable declaration.
type VarDecl struct {
	node
	Name string
	Type *Type
	Init Expr
}

// StructDecl is a struct definition.
type StructDecl struct {
	node
	Type *Type // Kind == TypeStruct
}

// TypedefDecl names a type.
type TypedefDecl struct {
	node
	Name string
	Type *Type
}

// File is one translation unit.
type File struct {
	Name     string
	Funcs    []*FuncDecl
	Vars     []*VarDecl
	Structs  []*StructDecl
	Typedefs []*TypedefDecl
}

// Lookup returns the function with the given name, or nil.
func (f *File) Lookup(name string) *FuncDecl {
	for _, fn := range f.Funcs {
		if fn.Name == name {
			return fn
		}
	}
	return nil
}
