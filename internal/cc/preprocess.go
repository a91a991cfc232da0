package cc

import (
	"fmt"
	"slices"
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
// The preprocessor is pulled, and pulls in turn. Each step of a run
// (ppStream) reads source tokens from its Lexer only as far as one
// directive line or one macro invocation reaches, and hands out that
// line's effect or that token's expansion; Parse steps it whenever the
// parser's window runs out. What a run holds is that line or
// invocation, its expansion and the expansion stack, never the file.
// Preprocess collects the same stream into one array, for the tests
// and the benchmark's per-layer timing. A run that fails keeps its
// first error and ends; ppStream.finish ranks it below a lexer error
// later in the file and above the error of whatever read the stream.
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

// Preprocess tokenizes and macro-expands src and collects the stream
// Parse reads; an error names file.
func (pp *Preprocessor) Preprocess(file, src string) ([]Token, error) {
	out, err := pp.stream(NewLexer(src), pp.expandSource).collect()
	return out, inFile(err, file)
}

// expandSource appends the expansion of the source token at toks[i]
// to out.
func (pp *Preprocessor) expandSource(out, toks []Token, i int) ([]Token, int, error) {
	return pp.expand(out, toks, i, nil)
}

// expander appends the expansion of the source token at toks[i] to out
// and returns the number of tokens it consumed: the preprocessor's
// expandSource, or the reference expander of the tests.
type expander func(out, toks []Token, i int) ([]Token, int, error)

// run preprocesses toks with expand and collects the output. The tests
// pass the reference expander here. The stream starts with all of toks
// read, so what it does with them cannot depend on how far a step
// reads ahead: the streamed Parse is compared against it.
func (pp *Preprocessor) run(toks []Token, expand expander) ([]Token, error) {
	// No step reads past an EOF or consumes it, so a stream over toks
	// that end with one reads them in place and never writes to them.
	if n := len(toks); n == 0 || toks[n-1].Kind != TokEOF {
		toks = append(slices.Clip(toks), Token{Kind: TokEOF})
	}
	s := pp.stream(endOfSource{}, expand)
	s.ahead = toks
	return s.collect()
}

// tokenSource is what a preprocessor stream reads: a Lexer, or
// endOfSource after tokens lexed before.
type tokenSource interface {
	Next() (Token, error)
}

// endOfSource is a source with nothing left in it.
type endOfSource struct{}

func (endOfSource) Next() (Token, error) { return Token{Kind: TokEOF}, nil }

// cond is an entry of the conditional-inclusion stack: whether the
// current branch is active and whether any branch was taken.
type cond struct{ active, taken bool }

// ppStream is one run of the preprocessor over a token source, stepped
// one directive line or one active source token at a time.
type ppStream struct {
	pp     *Preprocessor
	src    tokenSource
	expand expander
	// ahead[head:] holds the source tokens read but not yet consumed:
	// the directive line or macro invocation being read, and the token
	// that ended it. Macro bodies and arguments are copied or expanded
	// before the tokens they came from are dropped.
	ahead  []Token
	head   int
	conds  []cond
	eof    Token // what the stream repeats once it is done
	done   bool  // EOF was handed out, or the stream failed
	srcErr error // the source's error, which outranks every other
	err    error // the first preprocessing error
}

// stream starts a run of pp over src.
func (pp *Preprocessor) stream(src tokenSource, expand expander) *ppStream {
	pp.expansions, pp.depth, pp.args = 0, 0, pp.args[:0]
	return &ppStream{pp: pp, src: src, expand: expand, eof: Token{Kind: TokEOF}}
}

// collect steps s to its end and returns everything it produced.
func (s *ppStream) collect() ([]Token, error) {
	var out []Token
	for !s.done {
		out = s.step(out)
	}
	if err := s.finish(nil); err != nil {
		return nil, err
	}
	return out, nil
}

// fill reads source tokens until k+1 of them are unconsumed; false if
// the source failed.
func (s *ppStream) fill(k int) bool {
	return len(s.ahead)-s.head > k || s.read(k)
}

// read is fill's loop, kept out of line so that fill inlines. A full
// buffer first moves its unconsumed tokens to the front.
func (s *ppStream) read(k int) bool {
	for len(s.ahead)-s.head <= k {
		t, err := s.src.Next()
		if err != nil {
			s.srcErr = err
			return false
		}
		if s.head > 0 && len(s.ahead) == cap(s.ahead) {
			s.ahead = s.ahead[:copy(s.ahead, s.ahead[s.head:])]
			s.head = 0
		}
		s.ahead = append(s.ahead, t)
	}
	return true
}

// consume drops the next n unconsumed tokens.
func (s *ppStream) consume(n int) {
	if s.head += n; s.head == len(s.ahead) {
		s.ahead, s.head = s.ahead[:0], 0
	}
}

// stop ends the stream on err, or on the source's error when err is
// nil, and appends the EOF it hands out from now on.
func (s *ppStream) stop(dst []Token, err error) []Token {
	if err != nil {
		s.err = err
	}
	s.done, s.eof = true, Token{Kind: TokEOF}
	return append(dst, s.eof)
}

func (s *ppStream) active() bool {
	for _, c := range s.conds {
		if !c.active {
			return false
		}
	}
	return true
}

// step interprets the next directive line, or appends the expansion of
// the next active source token to dst, which may add no token at all.
// Once the stream is done, each step appends its EOF.
func (s *ppStream) step(dst []Token) []Token {
	if s.done {
		return append(dst, s.eof)
	}
	if !s.fill(0) {
		return s.stop(dst, nil)
	}
	if t := &s.ahead[s.head]; t.Kind == TokEOF {
		s.done, s.eof = true, *t
		return append(dst, *t)
	} else if t.LineStart && t.Is("#") {
		// Read the directive line and the token after it.
		j := 1
		for ; ; j++ {
			if !s.fill(j) {
				return s.stop(dst, nil)
			}
			if u := &s.ahead[s.head+j]; u.Kind == TokEOF || u.LineStart {
				break
			}
		}
		line := s.ahead[s.head : s.head+j]
		err := s.directive(line[0].Pos, line[1:])
		s.consume(j)
		if err != nil {
			return s.stop(dst, err)
		}
		return dst
	}
	if !s.active() {
		s.consume(1)
		return dst
	}
	if !s.readInvocation() {
		return s.stop(dst, nil)
	}
	// Ordinary token: macro-expand.
	out, n, err := s.expand(dst, s.ahead, s.head)
	if err != nil {
		return s.stop(dst, err)
	}
	s.consume(n)
	return out
}

// readInvocation reads the rest of a function-like macro invocation
// that the next token may start: the token after the name and, if that
// is '(', the argument list up to its ')', EOF, or the nesting bound,
// which is all an expander looks at. False if the source failed.
func (s *ppStream) readInvocation() bool {
	t := &s.ahead[s.head]
	if t.Kind != TokIdent {
		return true
	}
	if m := s.pp.Macros[t.Text]; m == nil || m.Params == nil {
		return true
	}
	depth := 0
	for k := 1; ; k++ {
		if !s.fill(k) {
			return false
		}
		switch u := &s.ahead[s.head+k]; {
		case u.Kind == TokEOF, k == 1 && !u.Is("("):
			return true
		case u.Is("("):
			if depth++; depth > maxMacroDepth {
				return true
			}
		case u.Is(")"):
			if depth--; depth == 0 {
				return true
			}
		}
	}
}

// directive interprets the directive named by line[0]; pos is that of
// its '#'.
func (s *ppStream) directive(pos Pos, line []Token) error {
	pp := s.pp
	if len(line) == 0 {
		return nil // null directive
	}
	name := line[0].Text
	switch name {
	case "define":
		if s.active() {
			return pp.define(line[1:], pos)
		}
	case "undef":
		if s.active() && len(line) >= 2 {
			delete(pp.Macros, line[1].Text)
		}
	case "include":
		// Ignored: the corpus is self-contained.
	case "ifdef", "ifndef":
		def := len(line) >= 2 && pp.Macros[line[1].Text] != nil
		take := def == (name == "ifdef")
		s.conds = append(s.conds, cond{active: take, taken: take})
	case "if":
		// Minimal: literal 0/1 and defined(NAME).
		take := pp.evalIf(line[1:])
		s.conds = append(s.conds, cond{active: take, taken: take})
	case "else":
		if len(s.conds) == 0 {
			return errf(pos, "#else without #if")
		}
		c := &s.conds[len(s.conds)-1]
		c.active = !c.taken
		c.taken = true
	case "endif":
		if len(s.conds) == 0 {
			return errf(pos, "#endif without #if")
		}
		s.conds = s.conds[:len(s.conds)-1]
	case "pragma", "error", "warning", "line":
		// Ignored.
	default:
		return errf(pos, "unsupported directive #%s", name)
	}
	return nil
}

// finish returns the error of a run that ended, given parseErr, the
// error of whatever read the stream. It ranks errors as a frontend that
// lexes the whole file, then preprocesses it, then parses would: a
// lexer error anywhere in the file first, then the first preprocessing
// error, then parseErr. So after parseErr it steps the stream to its
// end, and after a preprocessing error it lexes to the end of the
// source.
func (s *ppStream) finish(parseErr error) error {
	if parseErr != nil {
		var sink []Token
		for !s.done {
			sink = s.step(sink[:0])
		}
	}
	if s.err != nil {
		for s.srcErr == nil {
			t, err := s.src.Next()
			if err != nil {
				s.srcErr = err
			} else if t.Kind == TokEOF {
				break
			}
		}
	}
	switch {
	case s.srcErr != nil:
		return s.srcErr
	case s.err != nil:
		return s.err
	}
	return parseErr
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
		rest = rest[i+1:]
	}
	// The line is the stream's buffer, which the next line reuses.
	m.Body = slices.Clone(rest)
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
