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
//
// Expansion appends each output token once, straight into the output
// (or into the body buffer of the invocation being built). Rescanning a
// macro body hides the macro's own name through a linked hide list that
// shares its tail with the caller's, so a level costs one node. Within
// one invocation each argument is expanded at the first use of its
// parameter and copied at later uses; a reuse charges the expansion
// budget what the first expansion was charged, so the budget counts
// every expansion step as if the argument had been expanded again.
// Body buffers come from a free list, so nested expansions reuse
// memory. Two bounds of maxMacroDepth turn deep inputs into errors:
// the nesting of expansions in progress (argument expansion included)
// and the parenthesis depth inside one invocation's argument list.
type Preprocessor struct {
	Macros map[string]*Macro
	// expansions counts tokens flowing through expansion rescans within
	// one run, bounding the output of mutually recursive macro chains
	// ("billion laughs"): the hide set stops direct recursion but not
	// exponential growth through distinct names, so a budget turns that
	// into an error instead of an out-of-memory. Top-level source
	// tokens are never charged; only expansion-produced ones.
	expansions int
	depth      int        // expansions in progress
	args       []macroArg // arguments of the invocations in progress
	free       [][]Token  // released body buffers
}

// maxMacroExpansions bounds the number of expansion steps per
// translation unit; orders of magnitude above any legitimate input.
const maxMacroExpansions = 1 << 20

// maxMacroDepth bounds the nesting of macro expansions in progress and
// the parenthesis depth of a macro argument list; far above the 5
// levels of the deepest macro chains the benchmark generates.
const maxMacroDepth = 256

// NewPreprocessor returns a preprocessor with no predefined macros.
func NewPreprocessor() *Preprocessor {
	return &Preprocessor{Macros: make(map[string]*Macro)}
}

// Preprocess tokenizes and macro-expands src; an error names file.
func (pp *Preprocessor) Preprocess(file, src string) ([]Token, error) {
	toks, err := Tokenize(file, src)
	if err != nil {
		return nil, err
	}
	out, err := pp.run(toks, pp.expandSource)
	return out, inFile(err, file)
}

// expandSource appends the expansion of the source token at toks[i]
// to out.
func (pp *Preprocessor) expandSource(out, toks []Token, i int) ([]Token, int, error) {
	return pp.expand(out, toks, i, nil)
}

// run interprets the directive lines of toks and hands each active
// ordinary token to expand, which appends its expansion to out and
// returns the number of tokens consumed. The tests pass the reference
// expander here.
func (pp *Preprocessor) run(toks []Token, expand func(out, toks []Token, i int) ([]Token, int, error)) ([]Token, error) {
	pp.expansions, pp.depth, pp.args = 0, 0, pp.args[:0]
	// Presized to the input: directives drop out and expansions add
	// tokens, but for most sources the output is about as long.
	out := make([]Token, 0, len(toks))
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
	for i < len(toks) {
		t := toks[i]
		if t.Kind == TokEOF {
			out = append(out, t)
			break
		}
		if t.LineStart && t.Is("#") {
			// Collect the directive line.
			j := i + 1
			for j < len(toks) && toks[j].Kind != TokEOF && !toks[j].LineStart {
				j++
			}
			line := toks[i+1 : j]
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
		var n int
		var err error
		if out, n, err = expand(out, toks, i); err != nil {
			return nil, err
		}
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
	// Function-like only if '(' immediately follows the name.
	if len(rest) > 0 && rest[0].Is("(") && !rest[0].Spaced {
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

// hideSet is the set of macro names not to re-expand (the recursion
// guard): an immutable list whose tail is the caller's set, so a macro
// level adds its name without copying the names it inherits.
type hideSet struct {
	name string
	next *hideSet
}

func (h *hideSet) has(name string) bool {
	for ; h != nil; h = h.next {
		if h.name == name {
			return true
		}
	}
	return false
}

// macroArg is one argument of a function-like invocation in progress.
type macroArg struct {
	toks       []Token // the argument as written, a sub-slice of the invocation
	done       bool    // its expansion sits at body[start:end]
	start, end int
	charge     int // expansion steps that expansion was charged
}

// expand appends the expansion of the macro invocation (if any) at
// toks[i] to dst. It returns the extended dst and the number of input
// tokens consumed.
func (pp *Preprocessor) expand(dst, toks []Token, i int, hide *hideSet) ([]Token, int, error) {
	t := toks[i]
	if t.Kind != TokIdent {
		return append(dst, t), 1, nil
	}
	m := pp.Macros[t.Text]
	if m == nil || hide.has(t.Text) {
		return append(dst, t), 1, nil
	}
	// A function-like name without '(' next is left as it is.
	if m.Params != nil && (i+1 >= len(toks) || !toks[i+1].Is("(")) {
		return append(dst, t), 1, nil
	}
	if pp.depth == maxMacroDepth {
		return dst, 0, errf(t.Pos, "macro expansion nested deeper than %d", maxMacroDepth)
	}
	pp.depth++
	origin := t.Origin
	if origin == "" {
		origin = m.Name
	}
	body := pp.buffer()
	n := 1
	if m.Params == nil {
		for _, bt := range m.Body {
			body = append(body, retag(bt, t.Pos, origin))
		}
	} else {
		var err error
		if body, n, err = pp.substitute(body, m, toks, i, hide, origin); err != nil {
			return dst, 0, err
		}
	}
	dst, err := pp.rescanAll(dst, body, &hideSet{m.Name, hide})
	pp.free = append(pp.free, body[:0])
	pp.depth--
	return dst, n, err
}

// substitute appends to body the expansion of m's body for the
// invocation of m at toks[i], each parameter replaced by its argument
// macro-expanded under the caller's hide set (an approximation of C99
// without the # and ## operators). It returns the extended body and
// the number of tokens the invocation spans.
func (pp *Preprocessor) substitute(body []Token, m *Macro, toks []Token, i int, hide *hideSet, origin string) ([]Token, int, error) {
	pos := toks[i].Pos
	base := len(pp.args)
	var consumed int
	var err error
	if pp.args, consumed, err = parseMacroArgs(pp.args, toks, i+1); err != nil {
		return body, 0, err
	}
	nargs := len(pp.args) - base
	if !m.Variadic && nargs != len(m.Params) && !(len(m.Params) == 0 && nargs == 1 && len(pp.args[base].toks) == 0) {
		return body, 0, errf(pos, "macro %s expects %d args, got %d", m.Name, len(m.Params), nargs)
	}
	for _, bt := range m.Body {
		k := paramIndex(m, bt)
		switch {
		case k < 0:
			body = append(body, retag(bt, pos, origin))
		case k >= nargs:
			// A parameter with no argument expands to nothing.
		case pp.args[base+k].done && pp.expansions+pp.args[base+k].charge <= maxMacroExpansions:
			// Reuse the first expansion and charge the budget as if
			// the argument had been expanded again.
			a := pp.args[base+k]
			pp.expansions += a.charge
			body = append(body, body[a.start:a.end]...)
		default:
			// First use, or a reuse that would exhaust the budget:
			// expanding again reports the error at the same token.
			start, before := len(body), pp.expansions
			if body, err = pp.rescanAll(body, pp.args[base+k].toks, hide); err != nil {
				return body, 0, err
			}
			for j := start; j < len(body); j++ {
				body[j] = retag(body[j], pos, origin)
			}
			a := &pp.args[base+k]
			a.done, a.start, a.end, a.charge = true, start, len(body), pp.expansions-before
		}
	}
	pp.args = pp.args[:base]
	return body, 1 + consumed, nil
}

// paramIndex returns the index of the parameter of m that t names, or
// -1. A name listed twice means its last position.
func paramIndex(m *Macro, t Token) int {
	if t.Kind != TokIdent {
		return -1
	}
	for k := len(m.Params) - 1; k >= 0; k-- {
		if m.Params[k] == t.Text {
			return k
		}
	}
	return -1
}

// retag stamps position and origin onto an expanded token (first
// origin wins so nested expansions report the outermost user-written
// macro).
func retag(t Token, pos Pos, origin string) Token {
	t.Pos = pos
	if t.Origin == "" {
		t.Origin = origin
	}
	return t
}

// buffer returns an empty token buffer, reusing one that an earlier
// expansion released.
func (pp *Preprocessor) buffer() []Token {
	n := len(pp.free)
	if n == 0 {
		return nil
	}
	b := pp.free[n-1]
	pp.free = pp.free[:n-1]
	return b
}

// rescanAll appends the expansion of every token of body to dst.
func (pp *Preprocessor) rescanAll(dst, body []Token, hide *hideSet) ([]Token, error) {
	for i := 0; i < len(body); {
		// Every token here was produced by an expansion (top-level
		// source tokens never pass through a rescan), so charging the
		// budget per rescanned token bounds total expansion output: a
		// macro-free file of any size never trips it, while mutually
		// recursive doubling chains ("billion laughs") hit the ceiling
		// long before exhausting memory.
		if pp.expansions++; pp.expansions > maxMacroExpansions {
			return dst, errf(body[i].Pos, "macro expansion exceeds %d tokens (runaway expansion)", maxMacroExpansions)
		}
		var n int
		var err error
		if dst, n, err = pp.expand(dst, body, i, hide); err != nil {
			return dst, err
		}
		i += n
	}
	return dst, nil
}

// parseMacroArgs appends the arguments of the "(arg, arg, ...)" list
// starting at the '(' token toks[open] to args, each a sub-slice of
// toks. It returns the extended args and the number of tokens the list
// spans, both parentheses included.
func parseMacroArgs(args []macroArg, toks []Token, open int) ([]macroArg, int, error) {
	depth := 0
	start := open + 1
	for i := open; i < len(toks); i++ {
		t := toks[i]
		if t.Kind == TokEOF {
			break
		}
		switch {
		case t.Is("("):
			if depth++; depth > maxMacroDepth {
				return args, 0, errf(t.Pos, "macro argument nested deeper than %d", maxMacroDepth)
			}
		case t.Is(")"):
			if depth--; depth == 0 {
				return append(args, macroArg{toks: toks[start:i:i]}), i - open + 1, nil
			}
		case t.Is(",") && depth == 1:
			args = append(args, macroArg{toks: toks[start:i:i]})
			start = i + 1
		}
	}
	return args, 0, errf(toks[open].Pos, "unterminated macro argument list")
}

// String renders the macro table, for debugging.
func (pp *Preprocessor) String() string {
	var b strings.Builder
	for name, m := range pp.Macros {
		fmt.Fprintf(&b, "%s/%d ", name, len(m.Params))
	}
	return b.String()
}
