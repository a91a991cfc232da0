package cc

// The reference macro expander: the copy-per-step design that the
// single-buffer expander in preprocess.go replaced, kept as a
// differential oracle. Each step returns a fresh slice, each macro
// level copies the hide set into a new map, and an argument is
// re-expanded at every use of its parameter. It has no nesting bound,
// so callers keep inputs small or skip it when the new expander
// reports one.

import (
	"errors"
	"fmt"
	"slices"
	"strings"
	"testing"
)

// refPreprocess runs pp's directive handling with the reference
// expander on every active source token.
func (pp *Preprocessor) refPreprocess(file, src string) ([]Token, error) {
	toks, err := Tokenize(file, src)
	if err != nil {
		return nil, err
	}
	out, err := pp.run(toks, func(out, toks []Token, i int) ([]Token, int, error) {
		exp, n, err := pp.refExpand(toks, i, nil)
		return append(out, exp...), n, err
	})
	return out, inFile(err, file)
}

// refExpand expands the macro invocation (if any) at toks[i]. It
// returns the expansion, the number of input tokens consumed, and an
// error. hide is the set of macro names not to re-expand.
func (pp *Preprocessor) refExpand(toks []Token, i int, hide map[string]bool) ([]Token, int, error) {
	t := toks[i]
	if t.Kind != TokIdent {
		return []Token{t}, 1, nil
	}
	m := pp.Macros[t.Text]
	if m == nil || hide[t.Text] {
		return []Token{t}, 1, nil
	}
	origin := t.Origin
	if origin == "" {
		origin = m.Name
	}
	if m.Params == nil {
		body := refRetag(m.Body, t.Pos, origin)
		out, _, err := pp.refRescanAll(body, refChildHide(hide, m.Name))
		return out, 1, err
	}
	if i+1 >= len(toks) || !toks[i+1].Is("(") {
		return []Token{t}, 1, nil
	}
	args, consumed, err := refParseMacroArgs(toks, i+1)
	if err != nil {
		return nil, 0, err
	}
	if !m.Variadic && len(args) != len(m.Params) && !(len(m.Params) == 0 && len(args) == 1 && len(args[0]) == 0) {
		return nil, 0, errf(t.Pos, "macro %s expects %d args, got %d", m.Name, len(m.Params), len(args))
	}
	argMap := make(map[string][]Token, len(m.Params))
	for k, p := range m.Params {
		if k < len(args) {
			argMap[p] = args[k]
		} else {
			argMap[p] = nil
		}
	}
	var body []Token
	for _, bt := range m.Body {
		if bt.Kind == TokIdent {
			if arg, ok := argMap[bt.Text]; ok {
				expArg, _, err := pp.refRescanAll(arg, hide)
				if err != nil {
					return nil, 0, err
				}
				body = append(body, refRetag(expArg, t.Pos, origin)...)
				continue
			}
		}
		body = append(body, bt)
	}
	body = refRetag(body, t.Pos, origin)
	exp, _, err2 := pp.refRescanAll(body, refChildHide(hide, m.Name))
	if err2 != nil {
		return nil, 0, err2
	}
	return exp, 1 + consumed, nil
}

func refChildHide(hide map[string]bool, name string) map[string]bool {
	ch := make(map[string]bool, len(hide)+1)
	for k := range hide {
		ch[k] = true
	}
	ch[name] = true
	return ch
}

// refRetag stamps position and origin onto copies of expanded tokens.
func refRetag(body []Token, pos Pos, origin string) []Token {
	out := make([]Token, len(body))
	for i, b := range body {
		b.Pos = pos
		if b.Origin == "" {
			b.Origin = origin
		}
		out[i] = b
	}
	return out
}

func (pp *Preprocessor) refRescanAll(body []Token, hide map[string]bool) ([]Token, int, error) {
	var out []Token
	for i := 0; i < len(body); {
		if pp.expansions++; pp.expansions > maxMacroExpansions {
			return nil, 0, errf(body[i].Pos, "macro expansion exceeds %d tokens (runaway expansion)", maxMacroExpansions)
		}
		exp, n, err := pp.refExpand(body, i, hide)
		if err != nil {
			return nil, 0, err
		}
		out = append(out, exp...)
		i += n
	}
	return out, len(body), nil
}

// refParseMacroArgs parses "(arg, arg, ...)" starting at the '(' token
// into copied arguments.
func refParseMacroArgs(toks []Token, open int) ([][]Token, int, error) {
	depth := 0
	var args [][]Token
	var cur []Token
	i := open
	for ; i < len(toks); i++ {
		t := toks[i]
		if t.Kind == TokEOF {
			break
		}
		switch {
		case t.Is("("):
			depth++
			if depth > 1 {
				cur = append(cur, t)
			}
		case t.Is(")"):
			depth--
			if depth == 0 {
				args = append(args, cur)
				return args, i - open + 1, nil
			}
			cur = append(cur, t)
		case t.Is(",") && depth == 1:
			args = append(args, cur)
			cur = nil
		default:
			cur = append(cur, t)
		}
	}
	return nil, 0, errf(toks[open].Pos, "unterminated macro argument list")
}

// isNestingBound reports whether err is one of the two nesting-bound
// rejections, which the reference expander does not have.
func isNestingBound(err error) bool {
	var e *Error
	return errors.As(err, &e) &&
		(e.Msg == fmt.Sprintf("macro expansion nested deeper than %d", maxMacroDepth) ||
			e.Msg == fmt.Sprintf("macro argument nested deeper than %d", maxMacroDepth))
}

// mixChain is the macro-heavy benchmark's MIX1–MIX5 chain applied a
// few times, so the fuzz seeds and the allocation test share it.
func mixChain(uses int) string {
	var b strings.Builder
	b.WriteString("#define MIX1(a, b) (((a) ^ (b)) + ((a) & 0x5bd1e995u))\n")
	b.WriteString("#define MIX2(a, b) (MIX1(a, b) ^ MIX1(b, a))\n")
	b.WriteString("#define MIX3(a, b) (MIX2(a, b) + MIX2(b, a))\n")
	b.WriteString("#define MIX4(a, b) (MIX3(a, b) ^ (b))\n")
	b.WriteString("#define MIX5(a, b) (MIX4(a, b) + MIX4(b, 7u))\n")
	b.WriteString("unsigned f(unsigned h, unsigned y) {\n")
	for i := 0; i < uses; i++ {
		fmt.Fprintf(&b, "\th = MIX5(h, y + %du);\n", i)
	}
	b.WriteString("\treturn h;\n}\n")
	return b.String()
}

// doublingBomb is the 30-level "A<i> -> A<i+1> A<i+1>" chain that
// exhausts the expansion budget.
func doublingBomb() string {
	var b strings.Builder
	const n = 30
	for i := 0; i < n-1; i++ {
		fmt.Fprintf(&b, "#define A%d A%d A%d\n", i, i+1, i+1)
	}
	fmt.Fprintf(&b, "#define A%d x\nint y = A0;\n", n-1)
	return b.String()
}

// reuseBomb passes a 2^17-step doubling chain to a macro that uses its
// argument 16 times, so a reuse of the argument's expansion, not a
// rescan, is what crosses the expansion budget.
func reuseBomb() string {
	var b strings.Builder
	const n = 17
	for i := 0; i < n-1; i++ {
		fmt.Fprintf(&b, "#define A%d A%d A%d\n", i, i+1, i+1)
	}
	fmt.Fprintf(&b, "#define A%d x\n#define T(x) %s\nint y = T(A0);\n", n-1, strings.Repeat("x ", 16))
	return b.String()
}

// FuzzPreprocessMatchesReference: the single-buffer expander produces
// the reference expander's tokens (kind, text, position and origin),
// error and budget charge on any input, except where it rejects the
// input at a nesting bound that the reference lacks. Charges are
// compared only on input that lexes.
func FuzzPreprocessMatchesReference(f *testing.F) {
	for _, s := range slices.Concat(fuzzSeeds, depthSeeds) {
		f.Add(s)
	}
	for _, s := range []string{
		mixChain(3),
		doublingBomb(),
		reuseBomb(),
		"#define F(x) x\nint a = F(F(F(F(1))));\n",
		"#define E() 1\n#define G(x) [x]\nint a = E() + G() + G(());\n",
		"#define D(x, x) x + x\nint a = D(1, 2);\n",
		"#define V(a, b, ...) a b __VA_ARGS__\nint a = V(1) + V(1, 2, 3, 4);\n",
		"#define ONE 1\n#define T(x) x x x\n#define U(x) T(x) T(x)\nint a = U(ONE) + U(U(ONE));\n",
		"#define S(x) S(x) x\n#define K(f) f(2)\nint a = S(S(1)) + K(S);\n",
		"#define F(x) x\nint a = F(1, 2);\n",
		"#define F(x) x\nint a = F((1);\n",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		if len(src) > maxFuzzInput {
			t.Skip("oversized input")
		}
		pp := NewPreprocessor()
		got, err := pp.Preprocess("fuzz.c", src)
		if isNestingBound(err) {
			return
		}
		ref := NewPreprocessor()
		want, refErr := ref.refPreprocess("fuzz.c", src)
		if fmt.Sprint(err) != fmt.Sprint(refErr) {
			t.Fatalf("error %v, reference %v", err, refErr)
		}
		// The reference tokenizes the whole file before it expands
		// anything, so a lexer error charges it nothing, while the
		// streamed expander has charged the expansions before the error.
		if _, lexErr := Tokenize("fuzz.c", src); lexErr == nil && pp.expansions != ref.expansions {
			t.Fatalf("charged %d expansion steps, reference %d", pp.expansions, ref.expansions)
		}
		if len(got) != len(want) {
			t.Fatalf("%d tokens, reference %d", len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("token %d is %+v, reference %+v", i, got[i], want[i])
			}
		}
	})
}
