package cc

// Native fuzz targets for the frontend: lexer, preprocessor, and
// parser (plus the type checker on anything that parses). The frontend
// consumes untrusted archive sources in the whole-archive sweep, so
// its contract under arbitrary bytes is "error, never panic or hang".
// Seed corpora live in testdata/fuzz; CI runs each target for a short
// -fuzztime as a smoke stage, and `go test` replays the corpus as
// ordinary tests.

import (
	"fmt"
	"reflect"
	"slices"
	"strings"
	"testing"
)

// maxFuzzInput bounds fuzz inputs: recursion depth in the recursive-
// descent parser is proportional to input size, and multi-kilobyte
// inputs add coverage noise without new structure.
const maxFuzzInput = 4 << 10

var fuzzSeeds = []string{
	"",
	"int f(int x) { return x + 1; }\n",
	"int f(int x, int y) { if (x + y < x) return -1; return x / y; }\n",
	"#define N 16\nint g(int i) { int a[N]; return a[i << 2]; }\n",
	"#define MAX(a, b) ((a) > (b) ? (a) : (b))\nint h(int x) { return MAX(x, 0); }\n",
	"#ifdef FOO\nbroken(\n#else\nint ok;\n#endif\n",
	"struct s { int v; }; int r(struct s *p) { if (!p) return 0; return p->v; }\n",
	"unsigned long f(unsigned long p, long n) { return p + n; }\n",
	"/* comment */ // line\nchar c = 'x'; char *s = \"str\\n\";\n",
	"#define A B\n#define B A\nint x = A;\n",
	"int f() { return 0x7fffffff + 1; }\n",
}

// depthSeeds are short inputs at and past the frontend's nesting
// depths: macro arguments nested past maxMacroDepth, a macro chain
// just under it, parentheses nested past it without macros, and every
// parseShapes shape at maxParseDepth and one level past it.
var depthSeeds = slices.Concat([]string{
	nestedCalls(300),
	defineChain(200),
	"int f(int x) { return " + strings.Repeat("(", 300) + "x" + strings.Repeat(")", 300) + "; }\n",
}, parseDepthSeeds())

// parseShapes are the nesting shapes maxParseDepth bounds. Each src
// returns a function whose deepest construct sits at depth d >= 1 in
// the parser's count, with pad after every nesting token: the body's
// statements, and the expressions they hold, are at depth 1.
var parseShapes = []struct {
	name string
	src  func(d int, pad string) string
}{
	{"parentheses", func(d int, pad string) string {
		return "int f(int x) { return " + strings.Repeat("("+pad, d-1) + "x" + strings.Repeat(")", d-1) + "; }\n"
	}},
	{"unary operators", func(d int, pad string) string {
		return "int f(int x) { return " + strings.Repeat("~"+pad, d-1) + "x; }\n"
	}},
	{"binary chain", func(d int, pad string) string {
		return "int f(int x) { return x" + strings.Repeat(pad+"+ x", d-1) + "; }\n"
	}},
	{"blocks", func(d int, pad string) string {
		return "int f(int x) { " + strings.Repeat("{"+pad, d) + strings.Repeat("}", d) + " return x; }\n"
	}},
}

// parseDepthSeeds returns every shape at maxParseDepth and one past.
func parseDepthSeeds() []string {
	var seeds []string
	for _, sh := range parseShapes {
		seeds = append(seeds, sh.src(maxParseDepth, ""), sh.src(maxParseDepth+1, ""))
	}
	return seeds
}

// nestedCalls returns a file nesting F(...) depth levels deep, F an
// identity macro.
func nestedCalls(depth int) string {
	return "#define F(x) x\nint a = " + strings.Repeat("F(", depth) + "1" + strings.Repeat(")", depth) + ";\n"
}

// defineChain returns a file of n object-like macros, each expanding
// to the next, and one use of the first.
func defineChain(n int) string {
	var b strings.Builder
	for i := 0; i < n; i++ {
		fmt.Fprintf(&b, "#define A%d A%d\n", i, i+1)
	}
	b.WriteString("int x = A0;\n")
	return b.String()
}

// FuzzTokenize: the lexer must terminate with an error or a
// well-formed, EOF-terminated token stream on any input.
func FuzzTokenize(f *testing.F) {
	for _, s := range fuzzSeeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		if len(src) > maxFuzzInput {
			t.Skip("oversized input")
		}
		toks, err := Tokenize("fuzz.c", src)
		if err != nil {
			return
		}
		if len(toks) == 0 || toks[len(toks)-1].Kind != TokEOF {
			t.Fatalf("token stream not EOF-terminated: %d tokens", len(toks))
		}
		for _, tok := range toks {
			if tok.Kind != TokEOF && tok.Pos.Line < 1 {
				t.Fatalf("token %q carries invalid position %+v", tok.Text, tok.Pos)
			}
		}
	})
}

// FuzzPreprocess: directive handling and macro expansion (including
// the recursion guard and the runaway-expansion budget) must never
// panic or blow up.
func FuzzPreprocess(f *testing.F) {
	for _, s := range slices.Concat(fuzzSeeds, depthSeeds) {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		if len(src) > maxFuzzInput {
			t.Skip("oversized input")
		}
		pp := NewPreprocessor()
		toks, err := pp.Preprocess("fuzz.c", src)
		if err != nil {
			return
		}
		if len(toks) == 0 || toks[len(toks)-1].Kind != TokEOF {
			t.Fatalf("preprocessed stream not EOF-terminated: %d tokens", len(toks))
		}
	})
}

// FuzzParse: anything the parser accepts must also survive the type
// checker without panicking (errors are fine — panics and hangs are
// the bugs this target hunts).
func FuzzParse(f *testing.F) {
	for _, s := range slices.Concat(fuzzSeeds, depthSeeds) {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		if len(src) > maxFuzzInput {
			t.Skip("oversized input")
		}
		// Reject pathological token floods early; they only test the
		// allocator.
		if strings.Count(src, "(") > 1024 || strings.Count(src, "{") > 1024 {
			t.Skip("pathological nesting")
		}
		file, err := Parse("fuzz.c", src)
		if err != nil {
			return
		}
		_ = Check(file)
	})
}

// streamSeeds are inputs where streaming could change what Parse
// returns: an error found before a higher-ranked one later in the
// file, a macro body or argument list that outlives the source line it
// was read from, and a definition continued over several lines.
var streamSeeds = []string{
	// A lexer error after a parse error.
	"int f( { }\nint g;\n@\n",
	// A preprocessing error after a parse error.
	"int x = ;\nint y;\n#frobnicate\n",
	// A lexer error after a preprocessing error.
	"#else\nint x;\n\"unterminated\n",
	// A #define whose body outlives its line, and the longer and
	// shorter lines after it.
	"#define SUM 1 + 2 + 3 + 4 + 5 + 6\n#define N 7\nint a = SUM + N;\n#define M (N * 3 + SUM)\nint b = M + SUM;\n#undef N\nint c = M;\n",
	// A function-like invocation whose arguments span a directive line.
	"#define DROP(a) 0\n#define F(a, b) a b\nint x = DROP(\n#define G 2\n);\nint y = G;\nint z = F(1,\n#ifdef Q\n);\n",
	// An invocation with parentheses nested in its arguments.
	"#define F(a, b) a * b\nint x = F((1 + 2), ((3)));\n",
	// A continued #define.
	"#define ADD(a, b) \\\n  ((a) + \\\n   (b))\nint f(int x) { return ADD(x,\n 1); }\n",
	// A function-like name without '(' next, then a directive.
	"#define F(x) x\nint F\n#define Y 1\n;\nint z = Y;\n",
}

// FuzzStreamedParseMatchesCollected: Parse, which pulls tokens through
// the preprocessor from the lexer, returns the same file or the same
// error text as lexing the whole file, then preprocessing it, then
// parsing the result.
func FuzzStreamedParseMatchesCollected(f *testing.F) {
	for _, s := range slices.Concat(fuzzSeeds, depthSeeds, streamSeeds) {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		if len(src) > maxFuzzInput {
			t.Skip("oversized input")
		}
		got, err := Parse("fuzz.c", src)
		want, wantErr := collectedParse("fuzz.c", src)
		if fmt.Sprint(err) != fmt.Sprint(wantErr) {
			t.Fatalf("error %v, collected %v", err, wantErr)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("streamed and collected parses differ")
		}
	})
}
