package cc

import (
	"errors"
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"
)

func mustParse(t *testing.T, src string) *File {
	t.Helper()
	f, err := Parse("test.c", src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	if err := Check(f); err != nil {
		t.Fatalf("check: %v", err)
	}
	return f
}

func TestLexBasics(t *testing.T) {
	toks, err := Tokenize("t.c", "int x = 0x1F + 'a'; // comment\n/* multi\nline */ x <<= 2;")
	if err != nil {
		t.Fatal(err)
	}
	var texts []string
	for _, tok := range toks {
		if tok.Kind == TokEOF {
			break
		}
		texts = append(texts, tok.Text)
	}
	want := []string{"int", "x", "=", "0x1F", "+", "'a'", ";", "x", "<<=", "2", ";"}
	if strings.Join(texts, " ") != strings.Join(want, " ") {
		t.Fatalf("got %v, want %v", texts, want)
	}
}

func TestLexPositions(t *testing.T) {
	toks, err := Tokenize("t.c", "a\nbb ccc")
	if err != nil {
		t.Fatal(err)
	}
	if toks[0].Pos.Line != 1 || toks[1].Pos.Line != 2 || toks[2].Pos.Line != 2 {
		t.Fatalf("line tracking wrong: %v %v %v", toks[0].Pos, toks[1].Pos, toks[2].Pos)
	}
	if toks[2].Pos.Col != 4 {
		t.Fatalf("col tracking wrong: %v", toks[2].Pos)
	}
}

func TestLexLineContinuation(t *testing.T) {
	toks, err := Tokenize("t.c", "ab\\\ncd")
	if err != nil {
		t.Fatal(err)
	}
	if toks[0].Text != "abcd" {
		t.Fatalf("continuation not joined: %q", toks[0].Text)
	}
}

// TestLineContinuationKeepsPositions: a backslash-newline joins two
// physical lines into one logical line, and every token keeps its
// physical position, so code after a continued #define is reported on
// the line it is on. A name followed by '(' across a splice is still a
// function-like macro; a comment between them makes it object-like.
func TestLineContinuationKeepsPositions(t *testing.T) {
	src := "#define CHECK(p, n) \\\n" +
		"  ((p) + (n) < (p))\n" +
		"int f(char *p, unsigned n)\n" +
		"{\n" +
		"  if (p + n < p)\n" +
		"    return 1;\n" +
		"  return 0;\n" +
		"}\n"
	pp := NewPreprocessor()
	toks, err := pp.Preprocess("t.c", src)
	if err != nil {
		t.Fatal(err)
	}
	if m := pp.Macros["CHECK"]; m == nil || len(m.Params) != 2 || len(m.Body) != 13 {
		t.Fatalf("continued #define read as %+v", m)
	}
	var got []string
	for _, tk := range toks {
		if tk.Text == "+" || tk.Text == "1" {
			got = append(got, tk.Text+"@"+tk.Pos.String())
		}
	}
	if want := []string{"+@5:9", "1@6:12"}; fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("positions after the continuation = %v, want %v", got, want)
	}

	for _, tc := range []struct{ src, want string }{
		{"#define F\\\n(x) x\nint a = F(2);\n", "int a = 2 ;"},
		{"#define F/**/(x) x\nint a = F(2);\n", "int a = ( x ) x ( 2 ) ;"},
		{"#define SUM 1 + \\\n 2 + \\\r\n 3\nint a = SUM;\n", "int a = 1 + 2 + 3 ;"},
	} {
		toks, err := NewPreprocessor().Preprocess("t.c", tc.src)
		if err != nil {
			t.Fatalf("%q: %v", tc.src, err)
		}
		var texts []string
		for _, tk := range toks[:len(toks)-1] {
			texts = append(texts, tk.Text)
		}
		if got := strings.Join(texts, " "); got != tc.want {
			t.Errorf("%q expands to %q, want %q", tc.src, got, tc.want)
		}
		if line := toks[0].Pos.Line; line != strings.Count(tc.src, "\n") {
			t.Errorf("%q: int at line %d, want the last line", tc.src, line)
		}
	}
}

func TestLexErrors(t *testing.T) {
	if _, err := Tokenize("t.c", "\"unterminated"); err == nil {
		t.Fatal("want error for unterminated string")
	}
	if _, err := Tokenize("t.c", "@"); err == nil {
		t.Fatal("want error for bad character")
	}
}

func TestPreprocessObjectMacro(t *testing.T) {
	pp := NewPreprocessor()
	toks, err := pp.Preprocess("t.c", "#define N 42\nint x = N;")
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, tok := range toks {
		if tok.Text == "42" {
			found = true
			if tok.Origin != "N" {
				t.Fatalf("expanded token origin = %q, want N", tok.Origin)
			}
		}
		if tok.Text == "N" {
			t.Fatal("macro name leaked into output")
		}
	}
	if !found {
		t.Fatal("expansion missing")
	}
}

func TestPreprocessFunctionMacro(t *testing.T) {
	pp := NewPreprocessor()
	src := "#define IS_A(p) (p != 0 && p)\nint f(int q) { return IS_A(q); }"
	toks, err := pp.Preprocess("t.c", src)
	if err != nil {
		t.Fatal(err)
	}
	var out []string
	for _, tok := range toks {
		if tok.Kind == TokEOF {
			break
		}
		out = append(out, tok.Text)
	}
	joined := strings.Join(out, " ")
	if !strings.Contains(joined, "( q != 0 && q )") {
		t.Fatalf("expansion wrong: %s", joined)
	}
	// All expanded tokens carry the macro origin.
	for _, tok := range toks {
		if tok.Text == "!=" && tok.Origin != "IS_A" {
			t.Fatalf("origin = %q, want IS_A", tok.Origin)
		}
	}
}

func TestPreprocessNestedMacros(t *testing.T) {
	pp := NewPreprocessor()
	src := "#define A B\n#define B 7\nint x = A;"
	toks, err := pp.Preprocess("t.c", src)
	if err != nil {
		t.Fatal(err)
	}
	for _, tok := range toks {
		if tok.Text == "7" {
			// Outermost user-written macro wins.
			if tok.Origin != "A" {
				t.Fatalf("origin = %q, want A", tok.Origin)
			}
			return
		}
	}
	t.Fatal("nested expansion missing")
}

func TestPreprocessRecursionGuard(t *testing.T) {
	pp := NewPreprocessor()
	src := "#define X X\nint X = 1;"
	toks, err := pp.Preprocess("t.c", src)
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for _, tok := range toks {
		if tok.Text == "X" {
			n++
		}
	}
	if n != 1 {
		t.Fatalf("self-referential macro expanded %d times", n)
	}
}

// TestPreprocessRunawayExpansionBounded: a mutually recursive doubling
// chain ("billion laughs") must hit the expansion budget and error
// instead of exhausting memory — the hide set alone only stops direct
// self-reference.
func TestPreprocessRunawayExpansionBounded(t *testing.T) {
	var src strings.Builder
	// A0 -> A1 A1 -> ... -> A29 A29 -> 2^29 tokens without a budget.
	const n = 30
	for i := 0; i < n-1; i++ {
		fmt.Fprintf(&src, "#define A%d A%d A%d\n", i, i+1, i+1)
	}
	fmt.Fprintf(&src, "#define A%d x\n", n-1)
	src.WriteString("int y = A0;\n")
	_, err := NewPreprocessor().Preprocess("bomb.c", src.String())
	if err == nil {
		t.Fatal("exponential macro expansion succeeded; budget not enforced")
	}
	if !strings.Contains(err.Error(), "runaway expansion") {
		t.Fatalf("unexpected error: %v", err)
	}
}

// TestPreprocessBudgetSparesMacroFreeTokens: ordinary source tokens
// must not consume the expansion budget; only expansion-produced
// tokens are charged.
func TestPreprocessBudgetSparesMacroFreeTokens(t *testing.T) {
	pp := NewPreprocessor()
	if _, err := pp.Preprocess("plain.c", "int a; int b; int c;\n"); err != nil {
		t.Fatal(err)
	}
	if pp.expansions != 0 {
		t.Fatalf("macro-free source charged %d expansion tokens", pp.expansions)
	}
	pp = NewPreprocessor()
	if _, err := pp.Preprocess("m.c", "#define TWO 1 + 1\nint a = TWO;\n"); err != nil {
		t.Fatal(err)
	}
	if pp.expansions == 0 {
		t.Fatal("macro body tokens not charged to the budget")
	}
}

// wantNestingError fails t unless err is the named *Error for the
// nesting bound msg.
func wantNestingError(t *testing.T, err error, msg string) {
	t.Helper()
	var e *Error
	if !errors.As(err, &e) || e.Msg != fmt.Sprintf(msg, maxMacroDepth) {
		t.Fatalf("error %v, want %q", err, fmt.Sprintf(msg, maxMacroDepth))
	}
}

// TestPreprocessNestedArgumentsBounded: F(F(…F(1)…)) nested 8,000 deep
// is 24 KB of source, yet expanding every argument level by copying
// needed gigabytes. The argument nesting bound rejects it at once.
func TestPreprocessNestedArgumentsBounded(t *testing.T) {
	src := nestedCalls(8000)
	start := time.Now()
	_, err := NewPreprocessor().Preprocess("nested.c", src)
	wantNestingError(t, err, "macro argument nested deeper than %d")
	if d := time.Since(start); d > time.Second {
		t.Fatalf("rejecting %d bytes took %v", len(src), d)
	}
}

// TestPreprocessChainDepthBounded: 200,000 object-like macros, each
// expanding to the next, nest expansions 200,000 deep. The expansion
// nesting bound rejects the chain at link 257. Only expansion is
// timed; tokenizing the 4.6 MB source is linear and untouched by it.
func TestPreprocessChainDepthBounded(t *testing.T) {
	toks, err := Tokenize("chain.c", defineChain(200000))
	if err != nil {
		t.Fatal(err)
	}
	pp := NewPreprocessor()
	start := time.Now()
	_, err = pp.run(toks, pp.expandSource)
	wantNestingError(t, err, "macro expansion nested deeper than %d")
	if d := time.Since(start); d > time.Second {
		t.Fatalf("rejecting the chain took %v", d)
	}
	// Both bounds admit nesting up to maxMacroDepth itself.
	for _, src := range []string{nestedCalls(maxMacroDepth), defineChain(maxMacroDepth)} {
		if _, err := NewPreprocessor().Preprocess("deep.c", src); err != nil {
			t.Fatal(err)
		}
	}
}

// wantParseDepthError fails t unless err is the named *Error for the
// parser's depth bound.
func wantParseDepthError(t *testing.T, err error) {
	t.Helper()
	var e *Error
	if want := fmt.Sprintf("nesting deeper than %d", maxParseDepth); !errors.As(err, &e) || e.Msg != want {
		t.Fatalf("error %v, want %q", err, want)
	}
}

// TestParseDepthBound: every nesting shape parses and type-checks at
// maxParseDepth, and one level deeper is the named error.
func TestParseDepthBound(t *testing.T) {
	for _, sh := range parseShapes {
		file, err := Parse("deep.c", sh.src(maxParseDepth, ""))
		if err != nil {
			t.Fatalf("%s at the bound: %v", sh.name, err)
		}
		if err := Check(file); err != nil {
			t.Fatalf("%s at the bound: check: %v", sh.name, err)
		}
		_, err = Parse("deep.c", sh.src(maxParseDepth+1, ""))
		wantParseDepthError(t, err)
	}
}

// TestParseDeepInputsBounded: a 4 MB source of each shape, nested
// over 100,000 deep, is the named error, and the parser reaches it at
// once: it stops at the bound instead of recursing through the input.
// Only the parse is timed; tokenizing 4 MB is linear and untouched by
// the bound. A space pad between the nesting tokens keeps the token
// count, and so the test's memory, at a quarter million.
func TestParseDeepInputsBounded(t *testing.T) {
	const size = 4 << 20
	pad := strings.Repeat(" ", 31)
	for _, sh := range parseShapes {
		perLevel := len(sh.src(3, pad)) - len(sh.src(2, pad))
		src := sh.src(size/perLevel+2, pad)
		toks, err := NewPreprocessor().Preprocess("deep.c", src)
		if err != nil {
			t.Fatal(err)
		}
		start := time.Now()
		_, err = ParseTokens("deep.c", toks)
		wantParseDepthError(t, err)
		if d := time.Since(start); d > time.Second {
			t.Fatalf("%s: rejecting %d bytes took %v", sh.name, len(src), d)
		}
	}
}

// TestPreprocessAllocs: expanding the macro-heavy benchmark's MIX
// chain allocates per file, not per token or per expansion step. The
// copy-per-step expander made 38,121 allocations here, the
// single-buffer one 82 (go1.24.0, linux/amd64), tokenizing included.
func TestPreprocessAllocs(t *testing.T) {
	src := mixChain(48)
	allocs := testing.AllocsPerRun(10, func() {
		if _, err := NewPreprocessor().Preprocess("mix.c", src); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 128 {
		t.Fatalf("preprocessing the MIX chain made %.0f allocations, ceiling 128", allocs)
	}
}

func TestPreprocessConditionals(t *testing.T) {
	pp := NewPreprocessor()
	src := `#define FOO
#ifdef FOO
int a;
#else
int b;
#endif
#ifndef FOO
int c;
#endif
`
	toks, err := pp.Preprocess("t.c", src)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, tok := range toks {
		if tok.Kind == TokIdent {
			names = append(names, tok.Text)
		}
	}
	if strings.Join(names, ",") != "a" {
		t.Fatalf("conditional inclusion wrong: %v", names)
	}
}

func TestPreprocessUndef(t *testing.T) {
	pp := NewPreprocessor()
	src := "#define N 1\n#undef N\nint N;"
	toks, err := pp.Preprocess("t.c", src)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, tok := range toks {
		if tok.Text == "N" && tok.Kind == TokIdent {
			found = true
		}
	}
	if !found {
		t.Fatal("undef did not stop expansion")
	}
}

func TestParseSimpleFunction(t *testing.T) {
	f := mustParse(t, `
int add(int a, int b) {
	return a + b;
}
`)
	fn := f.Lookup("add")
	if fn == nil || len(fn.Params) != 2 {
		t.Fatalf("bad function: %+v", fn)
	}
	if !fn.Ret.Same(Int) {
		t.Fatalf("ret type %v", fn.Ret)
	}
	ret := fn.Body.Stmts[0].(*Return)
	if !ret.X.ExprType().Same(Int) {
		t.Fatalf("return expr type %v", ret.X.ExprType())
	}
}

func TestParsePointerArithmetic(t *testing.T) {
	f := mustParse(t, `
int check(char *buf, unsigned int len, char *buf_end) {
	if (buf + len >= buf_end)
		return 1;
	if (buf + len < buf)
		return 1;
	return 0;
}
`)
	fn := f.Lookup("check")
	iff := fn.Body.Stmts[0].(*If)
	cmp := iff.Cond.(*Binary)
	if cmp.Op != ">=" {
		t.Fatalf("op %q", cmp.Op)
	}
	add := cmp.X.(*Binary)
	if !add.ExprType().IsPointer() {
		t.Fatalf("buf+len type = %v, want pointer", add.ExprType())
	}
}

func TestParseStructArrow(t *testing.T) {
	f := mustParse(t, `
struct sock { int fd; };
struct tun_struct { struct sock *sk; int flags; };
int poll(struct tun_struct *tun) {
	struct sock *sk = tun->sk;
	if (!tun)
		return -1;
	return sk->fd;
}
`)
	fn := f.Lookup("poll")
	decl := fn.Body.Stmts[0].(*DeclStmt)
	if !decl.Type.IsPointer() || decl.Type.Elem.StructName != "sock" {
		t.Fatalf("decl type %v", decl.Type)
	}
	member := decl.Init.(*Member)
	if !member.Arrow || member.Field != "sk" {
		t.Fatalf("member %+v", member)
	}
}

func TestParseControlFlow(t *testing.T) {
	f := mustParse(t, `
int sum(int n) {
	int s = 0;
	for (int i = 0; i < n; i++) {
		if (i % 2 == 0)
			continue;
		s += i;
	}
	while (s > 100) { s /= 2; }
	do { s--; } while (s < 0);
	return s;
}
`)
	fn := f.Lookup("sum")
	if len(fn.Body.Stmts) != 5 {
		t.Fatalf("stmts = %d", len(fn.Body.Stmts))
	}
	if _, ok := fn.Body.Stmts[1].(*For); !ok {
		t.Fatalf("stmt 1 is %T", fn.Body.Stmts[1])
	}
	w := fn.Body.Stmts[3].(*While)
	if !w.DoWhile {
		t.Fatal("do-while flag missing")
	}
}

func TestParseTernaryAndCasts(t *testing.T) {
	f := mustParse(t, `
long clamp(long x) {
	unsigned int u = (unsigned int)x;
	return x < 0 ? 0 : (long)u;
}
`)
	fn := f.Lookup("clamp")
	decl := fn.Body.Stmts[0].(*DeclStmt)
	cast := decl.Init.(*Cast)
	if !cast.To.Same(UInt) {
		t.Fatalf("cast type %v", cast.To)
	}
	ret := fn.Body.Stmts[1].(*Return)
	if _, ok := ret.X.(*Cond); !ok {
		t.Fatalf("ternary missing: %T", ret.X)
	}
}

func TestParseSizeof(t *testing.T) {
	f := mustParse(t, `
unsigned long size(int *p) {
	return sizeof(int) + sizeof(*p) + sizeof p;
}
`)
	fn := f.Lookup("size")
	ret := fn.Body.Stmts[0].(*Return)
	if !ret.X.ExprType().Same(ULong) {
		t.Fatalf("sizeof sum type %v", ret.X.ExprType())
	}
}

func TestParseTypedef(t *testing.T) {
	f := mustParse(t, `
typedef unsigned int u32_alias;
typedef struct pair { int a; int b; } pair_t;
u32_alias f(pair_t *p) { return p->a + p->b; }
`)
	// typedef struct {...} NAME syntax: our parser handles
	// "typedef struct pair {..} pair_t;" via declarator after struct type.
	fn := f.Lookup("f")
	if fn == nil {
		t.Fatal("function missing")
	}
	if !fn.Ret.Same(UInt) {
		t.Fatalf("ret %v", fn.Ret)
	}
}

func TestParseArrays(t *testing.T) {
	f := mustParse(t, `
int get(int i) {
	char buf[15];
	buf[0] = 'x';
	return buf[i];
}
`)
	fn := f.Lookup("get")
	decl := fn.Body.Stmts[0].(*DeclStmt)
	if decl.Type.Kind != TypeArray || decl.Type.ArrayLen != 15 {
		t.Fatalf("array type %v", decl.Type)
	}
}

func TestParseBuiltinCalls(t *testing.T) {
	f := mustParse(t, `
int f(int x, char *dst, char *src, unsigned long n) {
	memcpy(dst, src, n);
	free(dst);
	return abs(x);
}
`)
	fn := f.Lookup("f")
	ret := fn.Body.Stmts[2].(*Return)
	call := ret.X.(*Call)
	if call.Func != "abs" || !call.ExprType().Same(Int) {
		t.Fatalf("abs call: %v %v", call.Func, call.ExprType())
	}
}

func TestParseInt64Literals(t *testing.T) {
	f := mustParse(t, `
long min(void) {
	long v = -9223372036854775807L;
	return v - 1;
}
`)
	if f.Lookup("min") == nil {
		t.Fatal("function missing")
	}
}

func TestUsualArithmeticConversions(t *testing.T) {
	cases := []struct {
		a, b, want *Type
	}{
		{Char, Char, Int},    // promotion
		{Int, UInt, UInt},    // unsigned wins at same width
		{UInt, Long, Long},   // wider signed can represent
		{ULong, Int, ULong},  // wider unsigned wins
		{Short, UShort, Int}, // both promote to int
		{Long, Long, Long},
	}
	for i, tc := range cases {
		if got := UsualArithmeticConversions(tc.a, tc.b); !got.Same(tc.want) {
			t.Errorf("case %d: UAC(%v,%v) = %v, want %v", i, tc.a, tc.b, got, tc.want)
		}
	}
}

func TestCheckErrors(t *testing.T) {
	cases := []string{
		"int f(void) { return undeclared_var; }",
		"int f(int x) { return *x; }",                              // deref non-pointer
		"struct s { int a; }; int f(struct s *p) { return p->b; }", // no field
		"int f(int x) { 5 = x; return 0; }",                        // non-lvalue
	}
	for i, src := range cases {
		f, err := Parse("t.c", src)
		if err != nil {
			continue // parse error also acceptable for the last case
		}
		if err := Check(f); err == nil {
			t.Errorf("case %d: expected type error", i)
		}
	}
}

func TestParseErrorsHavePositions(t *testing.T) {
	_, err := Parse("t.c", "int f( { }")
	if err == nil {
		t.Fatal("want parse error")
	}
	if !strings.Contains(err.Error(), "t.c:") {
		t.Fatalf("error lacks position: %v", err)
	}
}

func TestFieldOffset(t *testing.T) {
	f := mustParse(t, `
struct hdr { char tag; int len; long seq; };
int f(struct hdr *h) { return h->len; }
`)
	st := f.Structs[0].Type
	off, ft, ok := st.FieldOffset("len")
	if !ok || off != 1 || !ft.Same(Int) {
		t.Fatalf("FieldOffset(len) = %d %v %v", off, ft, ok)
	}
	off, _, _ = st.FieldOffset("seq")
	if off != 5 {
		t.Fatalf("FieldOffset(seq) = %d", off)
	}
}

func TestCommaOperator(t *testing.T) {
	f := mustParse(t, `int f(int a) { int b = (a = 1, a + 1); return b; }`)
	if f.Lookup("f") == nil {
		t.Fatal("missing")
	}
}

func TestUnsignedLiteralTypes(t *testing.T) {
	f := mustParse(t, `
unsigned long f(void) {
	return 1U + 2UL + 0x80000000;
}
`)
	if f.Lookup("f") == nil {
		t.Fatal("missing")
	}
}

// TestMacroOriginFlowsToAST verifies the §4.2 plumbing end to end:
// an expression produced by a macro carries the macro name.
func TestMacroOriginFlowsToAST(t *testing.T) {
	f := mustParse(t, `
#define IS_A(p) (p != 0)
int f(int q) {
	if (IS_A(q))
		return 1;
	return 0;
}
`)
	fn := f.Lookup("f")
	iff := fn.Body.Stmts[0].(*If)
	cmp := iff.Cond.(*Binary)
	if cmp.Origin != "IS_A" {
		t.Fatalf("condition origin = %q, want IS_A", cmp.Origin)
	}
}

func TestStructUnionIgnoredBitfields(t *testing.T) {
	f := mustParse(t, `
struct flags { int a : 1; int b : 2; };
int f(struct flags *x) { return x->a; }
`)
	if f.Lookup("f") == nil {
		t.Fatal("missing")
	}
}

func TestEnumSkipped(t *testing.T) {
	f := mustParse(t, `
enum color { RED, GREEN };
int f(int c) { return c; }
`)
	if f.Lookup("f") == nil {
		t.Fatal("missing")
	}
}

// TestParseHoldsNoWholeFileArray: Parse holds tokens in proportion to
// the largest single expansion, not to the file. A file of over 100,000
// tokens parses with a window and a preprocessor lookahead no larger
// than twice that expansion (append doubles a buffer it grows) plus a
// few tokens. The 4,000,024-byte file of 2M nested parentheses is
// rejected at the parser's depth bound with its usual error, and
// allocates under 64 MB on the way; whole-file token arrays of it
// allocated over 1 GB.
func TestParseHoldsNoWholeFileArray(t *testing.T) {
	var b strings.Builder
	b.WriteString(strings.Split(mixChain(1), "unsigned f(")[0])
	b.WriteString("unsigned f0(unsigned h, unsigned y) { return MIX5(h, y); }\n")
	b.WriteString("#define ADD(a, b) ((a) + (b))\n")
	for i := 1; i < 4000; i++ {
		fmt.Fprintf(&b, "int f%d(int x, int y) {\n\tint z = ADD(x, y * %d);\n\tif (z < x) return -1;\n\treturn z;\n}\n", i, i)
	}
	src := b.String()
	toks, err := Tokenize("big.c", src)
	if err != nil {
		t.Fatal(err)
	}
	largest, err := largestStep(src)
	if err != nil {
		t.Fatal(err)
	}
	file, win, ahead, err := parseWindow("big.c", src)
	if err != nil {
		t.Fatal(err)
	}
	if len(toks) < 100000 || len(file.Funcs) != 4000 {
		t.Fatalf("%d tokens and %d functions, want over 100,000 and 4,000", len(toks), len(file.Funcs))
	}
	const slack = 8
	if win > 2*largest+slack || ahead > 2*largest+slack {
		t.Fatalf("window capacity %d and lookahead capacity %d for %d tokens, largest expansion %d",
			win, ahead, len(toks), largest)
	}

	const depth = 2000000
	deep := "int f(int x){return " + strings.Repeat("(", depth) + "x" + strings.Repeat(")", depth) + ";}\n"
	if len(deep) != 4000024 {
		t.Fatalf("source is %d bytes", len(deep))
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err = Parse("", deep)
	runtime.ReadMemStats(&after)
	if want := fmt.Sprintf("1:1020: nesting deeper than %d", maxParseDepth); err == nil || err.Error() != want {
		t.Fatalf("error %v, want %q", err, want)
	}
	if alloc := after.TotalAlloc - before.TotalAlloc; alloc > 64<<20 {
		t.Fatalf("rejecting %d bytes allocated %d MB", len(deep), alloc>>20)
	}
}
