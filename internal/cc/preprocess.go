package cc

import (
	"fmt"
	"strings"
)

// Macro is a preprocessor macro definition.
type Macro struct {
	Name     string
	Params   []string // nil for object-like macros
	Variadic bool
	Body     []Token
	Pos      Pos
}

// Preprocessor expands macros and interprets a practical subset of
// directives: #define, #undef, #ifdef, #ifndef, #else, #endif, #if 0/1,
// and #include (which is ignored; the checker is whole-translation-unit
// based and the corpus is self-contained). Every token produced by a
// macro expansion is tagged with the macro's name in Token.Origin, so
// that later stages can suppress warnings for compiler-generated code
// exactly as STACK does (paper §4.2).
type Preprocessor struct {
	Macros map[string]*Macro
	// expansions counts tokens flowing through expansion rescans within
	// one run, bounding the output of mutually recursive macro chains
	// ("billion laughs"): the hide set stops direct recursion but not
	// exponential growth through distinct names, so a budget turns that
	// into an error instead of an out-of-memory. Top-level source
	// tokens are never charged; only expansion-produced ones.
	expansions int
}

// maxMacroExpansions bounds the number of expansion steps per
// translation unit; orders of magnitude above any legitimate input.
const maxMacroExpansions = 1 << 20

// NewPreprocessor returns a preprocessor with no predefined macros.
func NewPreprocessor() *Preprocessor {
	return &Preprocessor{Macros: make(map[string]*Macro)}
}

// Preprocess tokenizes and macro-expands src.
func (pp *Preprocessor) Preprocess(file, src string) ([]Token, error) {
	toks, err := Tokenize(file, src)
	if err != nil {
		return nil, err
	}
	return pp.run(toks)
}

// lineOf groups raw tokens into directive lines vs. ordinary tokens.
func (pp *Preprocessor) run(toks []Token) ([]Token, error) {
	pp.expansions = 0
	var out []Token
	// Conditional-inclusion stack: each entry records whether the
	// current branch is active and whether any branch was taken.
	type cond struct{ active, taken bool }
	var conds []cond
	active := func() bool {
		for _, c := range conds {
			if !c.active {
				return false
			}
		}
		return true
	}

	i := 0
	prevLine := -1
	for i < len(toks) {
		t := toks[i]
		if t.Kind == TokEOF {
			out = append(out, t)
			break
		}
		atLineStart := t.Pos.Line != prevLine
		prevLine = t.Pos.Line
		if atLineStart && t.Is("#") {
			// Collect the directive line.
			j := i + 1
			for j < len(toks) && toks[j].Kind != TokEOF && toks[j].Pos.Line == t.Pos.Line {
				j++
			}
			line := toks[i+1 : j]
			if j <= len(toks) && j > i+1 {
				prevLine = toks[j-1].Pos.Line
			}
			i = j
			if len(line) == 0 {
				continue // null directive
			}
			name := line[0].Text
			switch name {
			case "define":
				if !active() {
					continue
				}
				if err := pp.define(line[1:], t.Pos); err != nil {
					return nil, err
				}
			case "undef":
				if !active() {
					continue
				}
				if len(line) >= 2 {
					delete(pp.Macros, line[1].Text)
				}
			case "include":
				// Ignored: the corpus is self-contained.
			case "ifdef", "ifndef":
				def := len(line) >= 2 && pp.Macros[line[1].Text] != nil
				take := def == (name == "ifdef")
				conds = append(conds, cond{active: take, taken: take})
			case "if":
				// Minimal: literal 0/1 and defined(NAME).
				take := pp.evalIf(line[1:])
				conds = append(conds, cond{active: take, taken: take})
			case "else":
				if len(conds) == 0 {
					return nil, errf(t.Pos, "#else without #if")
				}
				c := &conds[len(conds)-1]
				c.active = !c.taken
				c.taken = true
			case "endif":
				if len(conds) == 0 {
					return nil, errf(t.Pos, "#endif without #if")
				}
				conds = conds[:len(conds)-1]
			case "pragma", "error", "warning", "line":
				// Ignored.
			default:
				return nil, errf(t.Pos, "unsupported directive #%s", name)
			}
			continue
		}
		if !active() {
			i++
			continue
		}
		// Ordinary token: macro-expand.
		exp, n, err := pp.expand(toks, i, nil)
		if err != nil {
			return nil, err
		}
		out = append(out, exp...)
		i += n
	}
	if len(out) == 0 || out[len(out)-1].Kind != TokEOF {
		out = append(out, Token{Kind: TokEOF})
	}
	return out, nil
}

func (pp *Preprocessor) evalIf(line []Token) bool {
	if len(line) == 1 && line[0].Kind == TokNumber {
		return line[0].Text != "0"
	}
	if len(line) >= 1 && line[0].Text == "defined" {
		// defined(NAME) or defined NAME
		for _, t := range line[1:] {
			if t.Kind == TokIdent {
				return pp.Macros[t.Text] != nil
			}
		}
	}
	if len(line) >= 2 && line[0].Is("!") && line[1].Text == "defined" {
		for _, t := range line[2:] {
			if t.Kind == TokIdent {
				return pp.Macros[t.Text] == nil
			}
		}
	}
	// Unknown conditions default to false (conservative).
	return false
}

// define parses "#define NAME body" or "#define NAME(params) body".
func (pp *Preprocessor) define(line []Token, pos Pos) error {
	if len(line) == 0 || (line[0].Kind != TokIdent && line[0].Kind != TokKeyword) {
		return errf(pos, "malformed #define")
	}
	m := &Macro{Name: line[0].Text, Pos: pos}
	rest := line[1:]
	// Function-like only if '(' immediately follows the name. Since we
	// lost intra-line spacing, use column adjacency.
	if len(rest) > 0 && rest[0].Is("(") &&
		rest[0].Pos.Col == line[0].Pos.Col+len(line[0].Text) {
		m.Params = []string{}
		i := 1
		for i < len(rest) && !rest[i].Is(")") {
			switch {
			case rest[i].Kind == TokIdent:
				m.Params = append(m.Params, rest[i].Text)
			case rest[i].Is("..."):
				m.Variadic = true
			case rest[i].Is(","):
			default:
				return errf(rest[i].Pos, "malformed macro parameter list")
			}
			i++
		}
		if i >= len(rest) {
			return errf(pos, "unterminated macro parameter list")
		}
		m.Body = rest[i+1:]
	} else {
		m.Body = rest
	}
	pp.Macros[m.Name] = m
	return nil
}

// expand expands the macro invocation (if any) at toks[i]. It returns
// the expansion, the number of input tokens consumed, and an error.
// hide is the set of macro names not to re-expand (recursion guard).
func (pp *Preprocessor) expand(toks []Token, i int, hide map[string]bool) ([]Token, int, error) {
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
		// Object-like.
		body := retag(m.Body, t.Pos, origin)
		return pp.rescan(body, childHide(hide, m.Name))
	}
	// Function-like: require '(' next; otherwise leave the identifier.
	if i+1 >= len(toks) || !toks[i+1].Is("(") {
		return []Token{t}, 1, nil
	}
	args, consumed, err := parseMacroArgs(toks, i+1)
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
				// Arguments are themselves macro-expanded before
				// substitution (approximation of C99 semantics
				// without # and ## operators).
				expArg, err := pp.expandAll(arg, hide)
				if err != nil {
					return nil, 0, err
				}
				body = append(body, retag(expArg, t.Pos, origin)...)
				continue
			}
		}
		body = append(body, bt)
	}
	body = retag(body, t.Pos, origin)
	exp, _, err2 := pp.rescanAll(body, childHide(hide, m.Name))
	if err2 != nil {
		return nil, 0, err2
	}
	return exp, 1 + consumed, nil
}

func childHide(hide map[string]bool, name string) map[string]bool {
	ch := make(map[string]bool, len(hide)+1)
	for k := range hide {
		ch[k] = true
	}
	ch[name] = true
	return ch
}

// retag stamps position and origin onto expanded tokens (first origin
// wins so nested expansions report the outermost user-written macro).
func retag(body []Token, pos Pos, origin string) []Token {
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

// rescan re-expands an object-like macro body.
func (pp *Preprocessor) rescan(body []Token, hide map[string]bool) ([]Token, int, error) {
	out, _, err := pp.rescanAll(body, hide)
	return out, 1, err
}

func (pp *Preprocessor) rescanAll(body []Token, hide map[string]bool) ([]Token, int, error) {
	var out []Token
	for i := 0; i < len(body); {
		// Every token here was produced by an expansion (top-level
		// source tokens never pass through a rescan), so charging the
		// budget per rescanned token bounds total expansion output: a
		// macro-free file of any size never trips it, while mutually
		// recursive doubling chains ("billion laughs") hit the ceiling
		// long before exhausting memory.
		if pp.expansions++; pp.expansions > maxMacroExpansions {
			return nil, 0, errf(body[i].Pos, "macro expansion exceeds %d tokens (runaway expansion)", maxMacroExpansions)
		}
		exp, n, err := pp.expand(body, i, hide)
		if err != nil {
			return nil, 0, err
		}
		out = append(out, exp...)
		i += n
	}
	return out, len(body), nil
}

func (pp *Preprocessor) expandAll(toks []Token, hide map[string]bool) ([]Token, error) {
	out, _, err := pp.rescanAll(toks, hide)
	return out, err
}

// parseMacroArgs parses "(arg, arg, ...)" starting at the '(' token,
// honoring nested parentheses. It returns the args and tokens consumed
// including both parens.
func parseMacroArgs(toks []Token, open int) ([][]Token, int, error) {
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

// String renders the macro table, for debugging.
func (pp *Preprocessor) String() string {
	var b strings.Builder
	for name, m := range pp.Macros {
		fmt.Fprintf(&b, "%s/%d ", name, len(m.Params))
	}
	return b.String()
}
