package cc

import (
	"strings"
)

// Lexer tokenizes C source. It skips white space and comments, and
// splices each backslash-newline out of the text while keeping
// physical positions. Directive lines stay in the token stream: each
// token says whether it starts a logical line and whether white space
// precedes it, which is all the preprocessor needs to find directives
// and tell function-like macros apart.
type Lexer struct {
	src  string
	pos  int
	line int
	col  int
	bol  bool // the next token starts a logical line
	ws   bool // white space or a comment precedes the next token
	// spliced records a line splice inside the token being lexed, whose
	// text then has to be copied without it.
	spliced bool
}

// NewLexer returns a lexer over src.
func NewLexer(src string) *Lexer {
	return &Lexer{src: src, line: 1, col: 1, bol: true}
}

func (l *Lexer) at() Pos { return Pos{Line: l.line, Col: l.col} }

// spliceEnd returns the first index at or after i where no
// backslash-newline starts.
func spliceEnd(src string, i int) int {
	for i < len(src) && src[i] == '\\' {
		switch {
		case i+1 < len(src) && src[i+1] == '\n':
			i += 2
		case i+2 < len(src) && src[i+1] == '\r' && src[i+2] == '\n':
			i += 3
		default:
			return i
		}
	}
	return i
}

// splice skips the backslash-newlines at the current position.
func (l *Lexer) splice() {
	for {
		end := spliceEnd(l.src, l.pos)
		if end == l.pos {
			return
		}
		l.pos = end
		l.line++
		l.col = 1
		l.spliced = true
	}
}

// ahead returns the byte k bytes past the current one in the spliced
// text, or 0 past the end.
func (l *Lexer) ahead(k int) byte {
	i := spliceEnd(l.src, l.pos)
	for ; k > 0 && i < len(l.src); k-- {
		i = spliceEnd(l.src, i+1)
	}
	if i >= len(l.src) {
		return 0
	}
	return l.src[i]
}

func (l *Lexer) peek() byte { return l.ahead(0) }

// eof reports whether only splices, if anything, are left.
func (l *Lexer) eof() bool { return spliceEnd(l.src, l.pos) >= len(l.src) }

func (l *Lexer) peek2() byte { return l.ahead(1) }

func (l *Lexer) advance() byte {
	l.splice()
	c := l.src[l.pos]
	l.pos++
	if c == '\n' {
		l.line++
		l.col = 1
		l.bol = true
	} else {
		l.col++
	}
	return c
}

// text returns the spelling of the token that started at src[start].
func (l *Lexer) text(start int) string {
	t := l.src[start:l.pos]
	if l.spliced {
		t = strings.ReplaceAll(strings.ReplaceAll(t, "\\\r\n", ""), "\\\n", "")
	}
	return t
}

func isIdentStart(c byte) bool {
	return c == '_' || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z')
}

func isIdentCont(c byte) bool { return isIdentStart(c) || (c >= '0' && c <= '9') }

func isDigit(c byte) bool { return c >= '0' && c <= '9' }

// skipSpaceAndComments consumes white space, newlines and comments,
// and leaves l.pos at the next token with its splices skipped.
func (l *Lexer) skipSpaceAndComments() {
	for {
		l.splice()
		if l.pos >= len(l.src) {
			return
		}
		c := l.src[l.pos]
		switch {
		case c == ' ' || c == '\n' || c == '\t' || c == '\r' || c == '\v' || c == '\f':
			l.advance()
		case c == '/' && l.peek2() == '/':
			for !l.eof() && l.peek() != '\n' {
				l.advance()
			}
		case c == '/' && l.peek2() == '*':
			l.advance()
			l.advance()
			for !l.eof() {
				if l.peek() == '*' && l.peek2() == '/' {
					l.advance()
					l.advance()
					break
				}
				l.advance()
			}
		default:
			return
		}
		l.ws = true
	}
}

// punctuators, longest first.
var puncts = []string{
	"<<=", ">>=", "...",
	"->", "++", "--", "<<", ">>", "<=", ">=", "==", "!=", "&&", "||",
	"+=", "-=", "*=", "/=", "%=", "&=", "|=", "^=",
	"+", "-", "*", "/", "%", "&", "|", "^", "~", "!", "<", ">", "=",
	"?", ":", ";", ",", ".", "(", ")", "[", "]", "{", "}", "#",
}

// Next returns the next token, skipping white space and comments
// (newlines included) and marking whether the token starts a logical
// line and whether white space precedes it.
func (l *Lexer) Next() (Token, error) {
	l.skipSpaceAndComments()
	t, err := l.lexOne()
	t.LineStart, t.Spaced = l.bol, l.ws
	l.bol, l.ws = false, false
	return t, err
}

// lexOne lexes one token at the current position, where no splice
// starts.
func (l *Lexer) lexOne() (Token, error) {
	pos := l.at()
	if l.pos >= len(l.src) {
		return Token{Kind: TokEOF, Pos: pos}, nil
	}
	l.spliced = false
	start := l.pos
	c := l.src[l.pos]
	switch {
	case isIdentStart(c):
		for isIdentCont(l.peek()) {
			l.advance()
		}
		text := l.text(start)
		kind := TokIdent
		if keywords[text] {
			kind = TokKeyword
		}
		return Token{Kind: kind, Text: text, Pos: pos}, nil
	case isDigit(c) || (c == '.' && isDigit(l.peek2())):
		// Accept a generous C numeric token; the parser validates.
		var prev byte
		for {
			ch := l.peek()
			exp := prev == 'e' || prev == 'E' || prev == 'p' || prev == 'P'
			if !isIdentCont(ch) && ch != '.' && !((ch == '+' || ch == '-') && exp) {
				break
			}
			prev = l.advance()
		}
		return Token{Kind: TokNumber, Text: l.text(start), Pos: pos}, nil
	case c == '\'':
		return l.lexCharOrString('\'', TokChar, pos)
	case c == '"':
		return l.lexCharOrString('"', TokString, pos)
	}
	for _, p := range puncts {
		if p[0] == c && l.hasPrefix(p) { // no splice starts at the token: c is its first byte
			for range p {
				l.advance()
			}
			return Token{Kind: TokPunct, Text: p, Pos: pos}, nil
		}
	}
	return Token{}, errf(pos, "unexpected character %q", string(c))
}

// hasPrefix reports whether the spliced text at the current position
// starts with p.
func (l *Lexer) hasPrefix(p string) bool {
	for k := 0; k < len(p); k++ {
		if l.ahead(k) != p[k] {
			return false
		}
	}
	return true
}

func (l *Lexer) lexCharOrString(quote byte, kind TokKind, pos Pos) (Token, error) {
	start := l.pos
	l.advance() // opening quote
	for !l.eof() && l.peek() != '\n' {
		c := l.advance()
		if c == quote {
			return Token{Kind: kind, Text: l.text(start), Pos: pos}, nil
		}
		if c == '\\' && !l.eof() {
			l.advance()
		}
	}
	return Token{}, errf(pos, "unterminated %s literal", kind)
}

// Tokenize lexes an entire standalone string (no preprocessing); an
// error names file.
func Tokenize(file, src string) ([]Token, error) {
	l := NewLexer(src)
	var out []Token
	for {
		t, err := l.Next()
		if err != nil {
			return nil, inFile(err, file)
		}
		out = append(out, t)
		if t.Kind == TokEOF {
			return out, nil
		}
	}
}
