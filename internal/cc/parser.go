package cc

import (
	"strconv"
	"strings"
)

// Parser is a recursive-descent parser that pulls preprocessed tokens
// through a window. It looks at most one token past the current one
// (la(1)) and never backtracks, so the window holds the current token,
// its lookahead and the rest of the last step of the stream it reads.
// For Parse that step is the expansion of one source token, so the
// window grows in proportion to the largest single expansion in the
// file, never to the file. When the window runs out the parser steps
// the stream again. A parse error does not end the run at once: the
// stream's finish reads the rest of the file for a lexer or
// preprocessing error, which outranks it.
type Parser struct {
	src      tokenStream
	win      []Token // win[pos] is the current token
	pos      int
	depth    int // nesting of the construct being parsed; see maxParseDepth
	typedefs map[string]*Type
	structs  map[string]*Type
	file     *File
}

// tokenStream is what a parser reads: each step appends zero or more
// tokens to dst, and once the stream has ended, its EOF.
type tokenStream interface {
	step(dst []Token) []Token
	// finish returns the error of the parse, given parseErr, the
	// parser's own error or nil.
	finish(parseErr error) error
}

// tokenSlice streams tokens preprocessed before, for ParseTokens.
type tokenSlice struct {
	toks []Token
	i    int
}

// tokenSliceChunk is how many tokens a tokenSlice step hands out.
const tokenSliceChunk = 256

func (s *tokenSlice) step(dst []Token) []Token {
	if s.i < len(s.toks) {
		n := min(len(s.toks)-s.i, tokenSliceChunk)
		s.i += n
		return append(dst, s.toks[s.i-n:s.i]...)
	}
	// Past the end, repeat the final EOF, or end a stream that has none.
	if n := len(s.toks); n > 0 && s.toks[n-1].Kind == TokEOF {
		return append(dst, s.toks[n-1])
	}
	return append(dst, Token{Kind: TokEOF})
}

func (s *tokenSlice) finish(parseErr error) error { return parseErr }

// maxParseDepth bounds the nesting the parser accepts. Each recursive
// descent counts one level: a statement, a parenthesis, a call's
// arguments, the operand of a unary operator, cast or sizeof, the
// branches of ?:, the right side of an assignment and a struct body.
// Each link of a binary-operator, comma or postfix chain counts one
// level too: the parser builds those in a loop, but the tree it
// returns is as deep as the chain is long, and Check and the IR
// builder recurse on that depth. A goroutine's stack overflow kills
// the process, so past the bound the parse ends in an error. Real code
// nests in single digits.
const maxParseDepth = 1000

// enter descends one level of nesting, failing past maxParseDepth at
// the current token. The caller undoes it by decrementing p.depth once
// the nested construct is parsed; on an error the parse ends, and the
// count with it.
func (p *Parser) enter() error {
	if p.depth++; p.depth > maxParseDepth {
		return p.tooDeep()
	}
	return nil
}

// tooDeep is the error for nesting past maxParseDepth at the current
// token.
func (p *Parser) tooDeep() error {
	return errf(p.cur().Pos, "nesting deeper than %d", maxParseDepth)
}

// Parse preprocesses and parses one translation unit. The parser pulls
// from the preprocessor, which pulls from the lexer, so no array as long
// as the file is built. The error is the one that lexing the whole
// file, then preprocessing it, then parsing the result would give: a
// lexer error anywhere wins, then the first preprocessing error, then
// the parse error.
func Parse(filename, src string) (*File, error) {
	pp := NewPreprocessor()
	return newParser(filename, pp.stream(NewLexer(src), pp.expandSource)).parse()
}

// ParseTokens parses preprocessed tokens into a File; an error names
// filename.
func ParseTokens(filename string, toks []Token) (*File, error) {
	return newParser(filename, &tokenSlice{toks: toks}).parse()
}

// newParser returns a parser reading src.
func newParser(filename string, src tokenStream) *Parser {
	return &Parser{
		src:      src,
		typedefs: builtinTypedefs(),
		structs:  make(map[string]*Type),
		file:     &File{Name: filename},
	}
}

// parse parses the file and returns it, or the ranked error.
func (p *Parser) parse() (*File, error) {
	if err := p.src.finish(p.parseFile()); err != nil {
		return nil, inFile(err, p.file.Name)
	}
	return p.file, nil
}

func builtinTypedefs() map[string]*Type {
	return map[string]*Type{
		"int8_t": Char, "uint8_t": UChar,
		"int16_t": Short, "uint16_t": UShort,
		"int32_t": Int, "uint32_t": UInt,
		"int64_t": Long, "uint64_t": ULong,
		"size_t": ULong, "ssize_t": Long,
		"intptr_t": Long, "uintptr_t": ULong,
		"ptrdiff_t": Long, "off_t": Long,
		"bool": Bool_, "u8": UChar, "u16": UShort, "u32": UInt, "u64": ULong,
		"s8": Char, "s16": Short, "s32": Int, "s64": Long,
	}
}

// --- token helpers ---------------------------------------------------------

func (p *Parser) cur() Token {
	if p.pos == len(p.win) {
		p.fill(0)
	}
	return p.win[p.pos]
}

func (p *Parser) la(n int) Token {
	if p.pos+n >= len(p.win) {
		p.fill(n)
	}
	return p.win[p.pos+n]
}

func (p *Parser) next() Token { t := p.cur(); p.pos++; return t }

// fill drops the tokens before the current one from the window and
// steps the stream until the window holds the token n past it.
func (p *Parser) fill(n int) {
	p.win = p.win[:copy(p.win, p.win[p.pos:])]
	p.pos = 0
	for len(p.win) <= n {
		p.win = p.src.step(p.win)
	}
}

func (p *Parser) accept(text string) bool {
	if p.cur().Is(text) {
		p.pos++
		return true
	}
	return false
}

func (p *Parser) expect(text string) (Token, error) {
	if p.cur().Is(text) {
		return p.next(), nil
	}
	return Token{}, errf(p.cur().Pos, "expected %q, found %q", text, p.cur().Text)
}

func (p *Parser) nodeAt(t Token) node {
	return node{Pos: t.Pos, Origin: t.Origin}
}

// --- type parsing ------------------------------------------------------------

// startsType reports whether the current token begins a type.
func (p *Parser) startsType() bool {
	t := p.cur()
	if t.Kind == TokKeyword {
		switch t.Text {
		case "void", "char", "short", "int", "long", "signed", "unsigned",
			"struct", "union", "const", "volatile", "static", "extern",
			"inline", "register", "auto", "typedef", "enum":
			return true
		}
		return false
	}
	if t.Kind == TokIdent {
		_, ok := p.typedefs[t.Text]
		return ok
	}
	return false
}

type declSpec struct {
	typ     *Type
	static  bool
	inline  bool
	typedef bool
}

// parseDeclSpec parses storage classes, qualifiers, and a base type.
func (p *Parser) parseDeclSpec() (declSpec, error) {
	ds := declSpec{}
	var (
		sawUnsigned, sawSigned bool
		longCount              int
		base                   string
	)
	for {
		t := p.cur()
		if t.Kind == TokKeyword {
			switch t.Text {
			case "const", "volatile", "register", "auto":
				p.next()
				continue
			case "static":
				ds.static = true
				p.next()
				continue
			case "extern":
				p.next()
				continue
			case "inline":
				ds.inline = true
				p.next()
				continue
			case "typedef":
				ds.typedef = true
				p.next()
				continue
			case "unsigned":
				sawUnsigned = true
				p.next()
				continue
			case "signed":
				sawSigned = true
				p.next()
				continue
			case "long":
				longCount++
				p.next()
				continue
			case "void", "char", "short", "int":
				if base != "" && !(base == "int" && t.Text == "int") {
					return ds, errf(t.Pos, "conflicting type specifiers %q and %q", base, t.Text)
				}
				base = t.Text
				p.next()
				continue
			case "struct", "union":
				st, err := p.parseStructType()
				if err != nil {
					return ds, err
				}
				ds.typ = st
				return ds, nil
			case "enum":
				if err := p.skipEnum(); err != nil {
					return ds, err
				}
				ds.typ = Int
				return ds, nil
			}
		}
		if t.Kind == TokIdent && base == "" && longCount == 0 && !sawSigned && !sawUnsigned {
			if td, ok := p.typedefs[t.Text]; ok {
				p.next()
				ds.typ = td
				return ds, nil
			}
		}
		break
	}
	// Assemble integer type from specifiers.
	switch {
	case base == "void":
		ds.typ = Void
	case base == "char":
		if sawUnsigned {
			ds.typ = UChar
		} else {
			ds.typ = Char
		}
	case base == "short":
		if sawUnsigned {
			ds.typ = UShort
		} else {
			ds.typ = Short
		}
	case longCount > 0:
		if sawUnsigned {
			ds.typ = ULong
		} else {
			ds.typ = Long
		}
	case sawUnsigned:
		ds.typ = UInt
	case base == "int" || sawSigned:
		ds.typ = Int
	default:
		return ds, errf(p.cur().Pos, "expected type, found %q", p.cur().Text)
	}
	if base == "short" && longCount > 0 {
		return ds, errf(p.cur().Pos, "both short and long")
	}
	return ds, nil
}

// parseStructType parses "struct NAME", "struct NAME { fields }", or
// "struct { fields }" (and treats union identically, which is a
// deliberate simplification: field overlap does not matter to the
// analysis because loads are modelled as fresh values).
func (p *Parser) parseStructType() (*Type, error) {
	kw := p.next() // struct/union
	name := ""
	if p.cur().Kind == TokIdent {
		name = p.next().Text
	}
	st := p.structs[name]
	if st == nil {
		st = &Type{Kind: TypeStruct, StructName: name}
		if name != "" {
			p.structs[name] = st
		}
	}
	if !p.cur().Is("{") {
		if name == "" {
			return nil, errf(kw.Pos, "anonymous struct without body")
		}
		return st, nil
	}
	if err := p.enter(); err != nil {
		return nil, err
	}
	p.next() // {
	st.Fields = nil
	for !p.cur().Is("}") {
		if p.cur().Kind == TokEOF {
			return nil, errf(kw.Pos, "unterminated struct body")
		}
		ds, err := p.parseDeclSpec()
		if err != nil {
			return nil, err
		}
		for {
			ft, fname, _, err := p.parseDeclarator(ds.typ)
			if err != nil {
				return nil, err
			}
			// Ignore bitfield widths ": N".
			if p.accept(":") {
				p.next()
			}
			st.Fields = append(st.Fields, Field{Name: fname, Type: ft})
			if !p.accept(",") {
				break
			}
		}
		if _, err := p.expect(";"); err != nil {
			return nil, err
		}
	}
	p.next() // }
	p.depth--
	return st, nil
}

func (p *Parser) skipEnum() error {
	p.next() // enum
	if p.cur().Kind == TokIdent {
		p.next()
	}
	if p.accept("{") {
		depth := 1
		for depth > 0 {
			t := p.next()
			if t.Kind == TokEOF {
				return errf(t.Pos, "unterminated enum")
			}
			if t.Is("{") {
				depth++
			}
			if t.Is("}") {
				depth--
			}
		}
	}
	return nil
}

// parseDeclarator parses pointer stars, a name, and array suffixes.
// It returns the full type, the declared name, and whether a function
// parameter list follows (detected, not consumed).
func (p *Parser) parseDeclarator(base *Type) (*Type, string, bool, error) {
	t := base
	for p.accept("*") {
		for p.cur().Is("const") || p.cur().Is("volatile") {
			p.next()
		}
		t = PointerTo(t)
	}
	if p.cur().Kind != TokIdent {
		return nil, "", false, errf(p.cur().Pos, "expected identifier, found %q", p.cur().Text)
	}
	name := p.next().Text
	isFunc := p.cur().Is("(")
	for p.cur().Is("[") {
		p.next()
		n := 0
		if p.cur().Kind == TokNumber {
			v, err := parseIntLit(p.cur())
			if err != nil {
				return nil, "", false, err
			}
			n = int(v.Value)
			p.next()
		}
		if _, err := p.expect("]"); err != nil {
			return nil, "", false, err
		}
		t = ArrayOf(t, n)
	}
	return t, name, isFunc, nil
}

// --- top level ----------------------------------------------------------------

func (p *Parser) parseFile() error {
	for p.cur().Kind != TokEOF {
		if p.accept(";") {
			continue
		}
		ds, err := p.parseDeclSpec()
		if err != nil {
			return err
		}
		// Bare type declaration: "struct S { ... };" or "enum E {...};".
		if p.cur().Is(";") && !ds.typedef {
			p.next()
			if ds.typ != nil && ds.typ.Kind == TypeStruct {
				p.file.Structs = append(p.file.Structs, &StructDecl{Type: ds.typ})
			}
			continue
		}
		if ds.typedef {
			t, name, _, err := p.parseDeclarator(ds.typ)
			if err != nil {
				return err
			}
			p.typedefs[name] = t
			p.file.Typedefs = append(p.file.Typedefs, &TypedefDecl{Name: name, Type: t})
			if _, err := p.expect(";"); err != nil {
				return err
			}
			continue
		}
		t, name, isFunc, err := p.parseDeclarator(ds.typ)
		if err != nil {
			return err
		}
		if isFunc {
			fn, err := p.parseFuncRest(t, name, ds)
			if err != nil {
				return err
			}
			if fn != nil {
				p.file.Funcs = append(p.file.Funcs, fn)
			}
			continue
		}
		// Global variable(s).
		for {
			var init Expr
			if p.accept("=") {
				init, err = p.parseAssignExpr()
				if err != nil {
					return err
				}
			}
			p.file.Vars = append(p.file.Vars, &VarDecl{Name: name, Type: t, Init: init})
			if !p.accept(",") {
				break
			}
			t, name, _, err = p.parseDeclarator(ds.typ)
			if err != nil {
				return err
			}
		}
		if _, err := p.expect(";"); err != nil {
			return err
		}
	}
	return nil
}

func (p *Parser) parseFuncRest(ret *Type, name string, ds declSpec) (*FuncDecl, error) {
	open, err := p.expect("(")
	if err != nil {
		return nil, err
	}
	fn := &FuncDecl{
		node:   node{Pos: open.Pos},
		Name:   name,
		Ret:    ret,
		Inline: ds.inline,
		Static: ds.static,
	}
	if p.cur().Is("void") && p.la(1).Is(")") {
		p.next()
	}
	for !p.cur().Is(")") {
		if p.cur().Is("...") {
			p.next()
			break
		}
		pds, err := p.parseDeclSpec()
		if err != nil {
			return nil, err
		}
		pt := pds.typ
		pname := ""
		if !p.cur().Is(",") && !p.cur().Is(")") {
			var err error
			pt, pname, _, err = p.parseDeclarator(pds.typ)
			if err != nil {
				return nil, err
			}
		}
		// Array parameters decay to pointers.
		if pt.Kind == TypeArray {
			pt = PointerTo(pt.Elem)
		}
		fn.Params = append(fn.Params, Param{Name: pname, Type: pt})
		if !p.accept(",") {
			break
		}
	}
	if _, err := p.expect(")"); err != nil {
		return nil, err
	}
	if p.accept(";") {
		return fn, nil // prototype
	}
	body, err := p.parseBlock()
	if err != nil {
		return nil, err
	}
	fn.Body = body
	return fn, nil
}

// --- statements -----------------------------------------------------------------

func (p *Parser) parseBlock() (*Block, error) {
	open, err := p.expect("{")
	if err != nil {
		return nil, err
	}
	b := &Block{stmtNode: stmtNode{p.nodeAt(open)}}
	for !p.cur().Is("}") {
		if p.cur().Kind == TokEOF {
			return nil, errf(open.Pos, "unterminated block")
		}
		s, err := p.parseStmt()
		if err != nil {
			return nil, err
		}
		b.Stmts = append(b.Stmts, s)
	}
	p.next()
	return b, nil
}

func (p *Parser) parseStmt() (Stmt, error) {
	if err := p.enter(); err != nil {
		return nil, err
	}
	s, err := p.stmt()
	p.depth--
	return s, err
}

// stmt parses one statement for parseStmt.
func (p *Parser) stmt() (Stmt, error) {
	t := p.cur()
	switch {
	case t.Is("{"):
		return p.parseBlock()
	case t.Is(";"):
		p.next()
		return &Empty{stmtNode{p.nodeAt(t)}}, nil
	case t.Is("if"):
		p.next()
		if _, err := p.expect("("); err != nil {
			return nil, err
		}
		cond, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(")"); err != nil {
			return nil, err
		}
		then, err := p.parseStmt()
		if err != nil {
			return nil, err
		}
		var els Stmt
		if p.accept("else") {
			els, err = p.parseStmt()
			if err != nil {
				return nil, err
			}
		}
		return &If{stmtNode: stmtNode{p.nodeAt(t)}, Cond: cond, Then: then, Else: els}, nil
	case t.Is("while"):
		p.next()
		if _, err := p.expect("("); err != nil {
			return nil, err
		}
		cond, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(")"); err != nil {
			return nil, err
		}
		body, err := p.parseStmt()
		if err != nil {
			return nil, err
		}
		return &While{stmtNode: stmtNode{p.nodeAt(t)}, Cond: cond, Body: body}, nil
	case t.Is("do"):
		p.next()
		body, err := p.parseStmt()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect("while"); err != nil {
			return nil, err
		}
		if _, err := p.expect("("); err != nil {
			return nil, err
		}
		cond, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(")"); err != nil {
			return nil, err
		}
		if _, err := p.expect(";"); err != nil {
			return nil, err
		}
		return &While{stmtNode: stmtNode{p.nodeAt(t)}, Cond: cond, Body: body, DoWhile: true}, nil
	case t.Is("for"):
		p.next()
		if _, err := p.expect("("); err != nil {
			return nil, err
		}
		var init Stmt
		if !p.cur().Is(";") {
			if p.startsType() {
				ds, err := p.parseDeclSpec()
				if err != nil {
					return nil, err
				}
				init, err = p.parseDeclRest(ds, t)
				if err != nil {
					return nil, err
				}
			} else {
				e, err := p.parseExpr()
				if err != nil {
					return nil, err
				}
				init = &ExprStmt{stmtNode: stmtNode{p.nodeAt(t)}, X: e}
				if _, err := p.expect(";"); err != nil {
					return nil, err
				}
			}
		} else {
			p.next()
		}
		var cond Expr
		var err error
		if !p.cur().Is(";") {
			cond, err = p.parseExpr()
			if err != nil {
				return nil, err
			}
		}
		if _, err := p.expect(";"); err != nil {
			return nil, err
		}
		var post Expr
		if !p.cur().Is(")") {
			post, err = p.parseExpr()
			if err != nil {
				return nil, err
			}
		}
		if _, err := p.expect(")"); err != nil {
			return nil, err
		}
		body, err := p.parseStmt()
		if err != nil {
			return nil, err
		}
		return &For{stmtNode: stmtNode{p.nodeAt(t)}, Init: init, Cond: cond, Post: post, Body: body}, nil
	case t.Is("return"):
		p.next()
		var x Expr
		var err error
		if !p.cur().Is(";") {
			x, err = p.parseExpr()
			if err != nil {
				return nil, err
			}
		}
		if _, err := p.expect(";"); err != nil {
			return nil, err
		}
		return &Return{stmtNode: stmtNode{p.nodeAt(t)}, X: x}, nil
	case t.Is("break"):
		p.next()
		if _, err := p.expect(";"); err != nil {
			return nil, err
		}
		return &Break{stmtNode{p.nodeAt(t)}}, nil
	case t.Is("continue"):
		p.next()
		if _, err := p.expect(";"); err != nil {
			return nil, err
		}
		return &Continue{stmtNode{p.nodeAt(t)}}, nil
	case t.Is("goto"), t.Is("switch"), t.Is("case"), t.Is("default"):
		return nil, errf(t.Pos, "%s is not supported by this frontend subset", t.Text)
	}
	if p.startsType() {
		ds, err := p.parseDeclSpec()
		if err != nil {
			return nil, err
		}
		// A struct definition used as a local declaration type.
		if ds.typ != nil && ds.typ.Kind == TypeStruct && p.cur().Is(";") {
			p.next()
			return &Empty{stmtNode{p.nodeAt(t)}}, nil
		}
		return p.parseDeclRest(ds, t)
	}
	e, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(";"); err != nil {
		return nil, err
	}
	return &ExprStmt{stmtNode: stmtNode{p.nodeAt(t)}, X: e}, nil
}

// parseDeclRest parses declarators after a decl-spec in a local
// declaration, producing a DeclList if several variables are declared.
func (p *Parser) parseDeclRest(ds declSpec, at Token) (Stmt, error) {
	var decls []*DeclStmt
	for {
		t, name, _, err := p.parseDeclarator(ds.typ)
		if err != nil {
			return nil, err
		}
		var init Expr
		if p.accept("=") {
			init, err = p.parseAssignExpr()
			if err != nil {
				return nil, err
			}
		}
		decls = append(decls, &DeclStmt{stmtNode: stmtNode{p.nodeAt(at)}, Name: name, Type: t, Init: init})
		if !p.accept(",") {
			break
		}
	}
	if _, err := p.expect(";"); err != nil {
		return nil, err
	}
	if len(decls) == 1 {
		return decls[0], nil
	}
	return &DeclList{stmtNode: stmtNode{p.nodeAt(at)}, Decls: decls}, nil
}

// --- expressions (precedence climbing) ------------------------------------------

func (p *Parser) parseExpr() (Expr, error) {
	e, err := p.parseAssignExpr()
	if err != nil {
		return nil, err
	}
	base := p.depth
	for p.cur().Is(",") {
		if err := p.enter(); err != nil {
			return nil, err
		}
		t := p.next()
		rhs, err := p.parseAssignExpr()
		if err != nil {
			return nil, err
		}
		// The comma operator evaluates both; model as a Binary with
		// op "," (the IR builder evaluates left for effects).
		e = &Binary{exprNode: exprNode{node: p.nodeAt(t)}, Op: ",", X: e, Y: rhs}
	}
	p.depth = base
	return e, nil
}

var compoundAssign = map[string]string{
	"+=": "+", "-=": "-", "*=": "*", "/=": "/", "%=": "%",
	"<<=": "<<", ">>=": ">>", "&=": "&", "|=": "|", "^=": "^",
}

func (p *Parser) parseAssignExpr() (Expr, error) {
	lhs, err := p.parseCondExpr()
	if err != nil {
		return nil, err
	}
	t := p.cur()
	op, compound := compoundAssign[t.Text]
	if !t.Is("=") && !(compound && t.Kind == TokPunct) {
		return lhs, nil
	}
	if err := p.enter(); err != nil {
		return nil, err
	}
	p.next()
	rhs, err := p.parseAssignExpr()
	if err != nil {
		return nil, err
	}
	p.depth--
	return &Assign{exprNode: exprNode{node: p.nodeAt(t)}, Op: op, X: lhs, Y: rhs}, nil
}

func (p *Parser) parseCondExpr() (Expr, error) {
	c, err := p.parseBinaryExpr(0)
	if err != nil {
		return nil, err
	}
	if !p.cur().Is("?") {
		return c, nil
	}
	if err := p.enter(); err != nil {
		return nil, err
	}
	t := p.next()
	x, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(":"); err != nil {
		return nil, err
	}
	y, err := p.parseCondExpr()
	if err != nil {
		return nil, err
	}
	p.depth--
	return &Cond{exprNode: exprNode{node: p.nodeAt(t)}, C: c, X: x, Y: y}, nil
}

// binary operator precedence, highest binds tightest.
var binPrec = map[string]int{
	"*": 10, "/": 10, "%": 10,
	"+": 9, "-": 9,
	"<<": 8, ">>": 8,
	"<": 7, ">": 7, "<=": 7, ">=": 7,
	"==": 6, "!=": 6,
	"&": 5, "^": 4, "|": 3,
	"&&": 2, "||": 1,
}

func (p *Parser) parseBinaryExpr(minPrec int) (Expr, error) {
	lhs, err := p.parseUnaryExpr()
	if err != nil {
		return nil, err
	}
	base := p.depth
	for {
		t := p.cur()
		prec, ok := binPrec[t.Text]
		if !ok || t.Kind != TokPunct || prec < minPrec {
			p.depth = base
			return lhs, nil
		}
		if err := p.enter(); err != nil {
			return nil, err
		}
		p.next()
		rhs, err := p.parseBinaryExpr(prec + 1)
		if err != nil {
			return nil, err
		}
		lhs = &Binary{exprNode: exprNode{node: p.nodeAt(t)}, Op: t.Text, X: lhs, Y: rhs}
	}
}

func (p *Parser) parseUnaryExpr() (Expr, error) {
	t := p.cur()
	switch {
	case t.Is("++"), t.Is("--"):
		p.next()
		x, err := p.parseOperand()
		if err != nil {
			return nil, err
		}
		return &Unary{exprNode: exprNode{node: p.nodeAt(t)}, Op: t.Text, X: x}, nil
	case t.Is("-"), t.Is("+"), t.Is("!"), t.Is("~"), t.Is("*"), t.Is("&"):
		p.next()
		x, err := p.parseOperand()
		if err != nil {
			return nil, err
		}
		return &Unary{exprNode: exprNode{node: p.nodeAt(t)}, Op: t.Text, X: x}, nil
	case t.Is("sizeof"):
		p.next()
		if p.cur().Is("(") && p.typeAfterParen() {
			p.next()
			ty, err := p.parseTypeName()
			if err != nil {
				return nil, err
			}
			if _, err := p.expect(")"); err != nil {
				return nil, err
			}
			return &SizeofExpr{exprNode: exprNode{node: p.nodeAt(t)}, OfType: ty}, nil
		}
		x, err := p.parseOperand()
		if err != nil {
			return nil, err
		}
		return &SizeofExpr{exprNode: exprNode{node: p.nodeAt(t)}, X: x}, nil
	case t.Is("(") && p.typeAfterParen():
		p.next()
		ty, err := p.parseTypeName()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(")"); err != nil {
			return nil, err
		}
		x, err := p.parseOperand()
		if err != nil {
			return nil, err
		}
		return &Cast{exprNode: exprNode{node: p.nodeAt(t)}, To: ty, X: x}, nil
	}
	return p.parsePostfixExpr()
}

// parseOperand parses the operand of a unary operator, cast or sizeof,
// one level deeper.
func (p *Parser) parseOperand() (Expr, error) {
	if err := p.enter(); err != nil {
		return nil, err
	}
	x, err := p.parseUnaryExpr()
	p.depth--
	return x, err
}

// typeAfterParen reports whether "(" at the current position is
// followed by a type name (cast or sizeof(T)).
func (p *Parser) typeAfterParen() bool {
	t := p.la(1)
	if t.Kind == TokKeyword {
		switch t.Text {
		case "void", "char", "short", "int", "long", "signed", "unsigned",
			"struct", "union", "const", "volatile", "enum":
			return true
		}
		return false
	}
	if t.Kind == TokIdent {
		_, ok := p.typedefs[t.Text]
		return ok
	}
	return false
}

// parseTypeName parses "type *... [()]" in a cast or sizeof.
func (p *Parser) parseTypeName() (*Type, error) {
	ds, err := p.parseDeclSpec()
	if err != nil {
		return nil, err
	}
	t := ds.typ
	for p.accept("*") {
		for p.cur().Is("const") || p.cur().Is("volatile") {
			p.next()
		}
		t = PointerTo(t)
	}
	return t, nil
}

func (p *Parser) parsePostfixExpr() (Expr, error) {
	e, err := p.parsePrimaryExpr()
	if err != nil {
		return nil, err
	}
	base := p.depth
	for {
		t := p.cur()
		if !t.Is("[") && !t.Is(".") && !t.Is("->") && !t.Is("++") && !t.Is("--") {
			p.depth = base
			return e, nil
		}
		if err := p.enter(); err != nil {
			return nil, err
		}
		switch {
		case t.Is("["):
			p.next()
			i, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			if _, err := p.expect("]"); err != nil {
				return nil, err
			}
			e = &Index{exprNode: exprNode{node: p.nodeAt(t)}, X: e, I: i}
		case t.Is("."), t.Is("->"):
			p.next()
			f := p.cur()
			if f.Kind != TokIdent {
				return nil, errf(f.Pos, "expected field name after %q", t.Text)
			}
			p.next()
			e = &Member{exprNode: exprNode{node: p.nodeAt(t)}, X: e, Field: f.Text, Arrow: t.Is("->")}
		default: // ++, --
			p.next()
			e = &Postfix{exprNode: exprNode{node: p.nodeAt(t)}, Op: t.Text, X: e}
		}
	}
}

func (p *Parser) parsePrimaryExpr() (Expr, error) {
	t := p.cur()
	switch t.Kind {
	case TokNumber:
		p.next()
		return parseIntLit(t)
	case TokChar:
		p.next()
		v, err := charValue(t)
		if err != nil {
			return nil, err
		}
		return &IntLit{exprNode: exprNode{node: node{Pos: t.Pos, Origin: t.Origin}}, Value: v}, nil
	case TokString:
		p.next()
		return &StrLit{exprNode: exprNode{node: node{Pos: t.Pos, Origin: t.Origin}}, Value: t.Text}, nil
	case TokIdent:
		// Function call or variable.
		if p.la(1).Is("(") {
			name := p.next().Text
			p.next() // (
			call := &Call{exprNode: exprNode{node: node{Pos: t.Pos, Origin: t.Origin}}, Func: name}
			if err := p.enter(); err != nil {
				return nil, err
			}
			for !p.cur().Is(")") {
				a, err := p.parseAssignExpr()
				if err != nil {
					return nil, err
				}
				call.Args = append(call.Args, a)
				if !p.accept(",") {
					break
				}
			}
			if _, err := p.expect(")"); err != nil {
				return nil, err
			}
			p.depth--
			return call, nil
		}
		p.next()
		return &Ident{exprNode: exprNode{node: node{Pos: t.Pos, Origin: t.Origin}}, Name: t.Text}, nil
	}
	if t.Is("(") {
		if err := p.enter(); err != nil {
			return nil, err
		}
		p.next()
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(")"); err != nil {
			return nil, err
		}
		p.depth--
		return e, nil
	}
	return nil, errf(t.Pos, "unexpected token %q in expression", t.Text)
}

// parseIntLit decodes a C integer literal with suffixes.
func parseIntLit(t Token) (*IntLit, error) {
	text := t.Text
	lower := strings.ToLower(text)
	unsigned, long := false, false
	for strings.HasSuffix(lower, "u") || strings.HasSuffix(lower, "l") {
		if strings.HasSuffix(lower, "u") {
			unsigned = true
		} else {
			long = true
		}
		lower = lower[:len(lower)-1]
		text = text[:len(text)-1]
	}
	v, err := strconv.ParseUint(lower, 0, 64)
	if err != nil {
		return nil, errf(t.Pos, "bad integer literal %q: %v", t.Text, err)
	}
	return &IntLit{
		exprNode: exprNode{node: node{Pos: t.Pos, Origin: t.Origin}},
		Value:    int64(v),
		Unsigned: unsigned,
		Long:     long,
	}, nil
}

func charValue(t Token) (int64, error) {
	s := t.Text
	if len(s) < 3 || s[0] != '\'' || s[len(s)-1] != '\'' {
		return 0, errf(t.Pos, "bad char literal %q", s)
	}
	body := s[1 : len(s)-1]
	if body[0] != '\\' {
		return int64(body[0]), nil
	}
	if len(body) < 2 {
		return 0, errf(t.Pos, "bad escape in %q", s)
	}
	switch body[1] {
	case 'n':
		return '\n', nil
	case 't':
		return '\t', nil
	case 'r':
		return '\r', nil
	case '0':
		return 0, nil
	case '\\':
		return '\\', nil
	case '\'':
		return '\'', nil
	case 'x':
		v, err := strconv.ParseUint(body[2:], 16, 8)
		if err != nil {
			return 0, errf(t.Pos, "bad hex escape %q", s)
		}
		return int64(v), nil
	}
	return 0, errf(t.Pos, "unsupported escape %q", s)
}
