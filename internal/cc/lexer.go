package cc

import (
	"strings"
)

// Lexer tokenizes C source. It handles comments, line continuations,
// and produces preprocessor directives as raw lines for the
// preprocessor to interpret.
type Lexer struct {
	src  string
	file string
	pos  int
	line int
	col  int
}

// NewLexer returns a lexer over src, attributing positions to file.
func NewLexer(file, src string) *Lexer {
	// Normalize line continuations up front; keep line accounting by
	// replacing "\\\n" with a marker-free join (column drift within
	// continued lines is acceptable for diagnostics).
	src = strings.ReplaceAll(src, "\\\r\n", "")
	src = strings.ReplaceAll(src, "\\\n", "")
	return &Lexer{src: src, file: file, line: 1, col: 1}
}

func (l *Lexer) at() Pos { return Pos{File: l.file, Line: l.line, Col: l.col} }

func (l *Lexer) peek() byte {
	if l.pos >= len(l.src) {
		return 0
	}
	return l.src[l.pos]
}

func (l *Lexer) peek2() byte {
	if l.pos+1 >= len(l.src) {
		return 0
	}
	return l.src[l.pos+1]
}

func (l *Lexer) advance() byte {
	c := l.src[l.pos]
	l.pos++
	if c == '\n' {
		l.line++
		l.col = 1
	} else {
		l.col++
	}
	return c
}

func isIdentStart(c byte) bool {
	return c == '_' || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z')
}

func isIdentCont(c byte) bool { return isIdentStart(c) || (c >= '0' && c <= '9') }

func isDigit(c byte) bool { return c >= '0' && c <= '9' }

// skipSpaceAndComments consumes whitespace, newlines, and comments.
func (l *Lexer) skipSpaceAndComments() {
	for l.pos < len(l.src) {
		c := l.peek()
		switch {
		case c == ' ' || c == '\n' || c == '\t' || c == '\r' || c == '\v' || c == '\f':
			l.advance()
		case c == '/' && l.peek2() == '/':
			for l.pos < len(l.src) && l.peek() != '\n' {
				l.advance()
			}
		case c == '/' && l.peek2() == '*':
			l.advance()
			l.advance()
			for l.pos < len(l.src) {
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

// Next returns the next token, skipping whitespace and comments
// (including newlines). Directive lines must be extracted with
// NextLineTokens by a preprocessor before using Next on raw source.
func (l *Lexer) Next() (Token, error) {
	l.skipSpaceAndComments()
	return l.lexOne()
}

// lexOne lexes one token at the current position.
func (l *Lexer) lexOne() (Token, error) {
	pos := l.at()
	if l.pos >= len(l.src) {
		return Token{Kind: TokEOF, Pos: pos}, nil
	}
	c := l.peek()
	switch {
	case isIdentStart(c):
		start := l.pos
		for l.pos < len(l.src) && isIdentCont(l.peek()) {
			l.advance()
		}
		text := l.src[start:l.pos]
		kind := TokIdent
		if keywords[text] {
			kind = TokKeyword
		}
		return Token{Kind: kind, Text: text, Pos: pos}, nil
	case isDigit(c) || (c == '.' && isDigit(l.peek2())):
		start := l.pos
		// Accept a generous C numeric token; the parser validates.
		for l.pos < len(l.src) {
			ch := l.peek()
			if isIdentCont(ch) || ch == '.' {
				l.advance()
				continue
			}
			if (ch == '+' || ch == '-') && l.pos > start {
				prev := l.src[l.pos-1]
				if prev == 'e' || prev == 'E' || prev == 'p' || prev == 'P' {
					l.advance()
					continue
				}
			}
			break
		}
		return Token{Kind: TokNumber, Text: l.src[start:l.pos], Pos: pos}, nil
	case c == '\'':
		return l.lexCharOrString('\'', TokChar, pos)
	case c == '"':
		return l.lexCharOrString('"', TokString, pos)
	}
	for _, p := range puncts {
		if strings.HasPrefix(l.src[l.pos:], p) {
			for range p {
				l.advance()
			}
			return Token{Kind: TokPunct, Text: p, Pos: pos}, nil
		}
	}
	return Token{}, errf(pos, "unexpected character %q", string(c))
}

func (l *Lexer) lexCharOrString(quote byte, kind TokKind, pos Pos) (Token, error) {
	start := l.pos
	l.advance() // opening quote
	for l.pos < len(l.src) {
		c := l.peek()
		if c == '\\' {
			l.advance()
			if l.pos < len(l.src) {
				l.advance()
			}
			continue
		}
		if c == quote {
			l.advance()
			return Token{Kind: kind, Text: l.src[start:l.pos], Pos: pos}, nil
		}
		if c == '\n' {
			break
		}
		l.advance()
	}
	return Token{}, errf(pos, "unterminated %s literal", kind)
}

// Tokenize lexes an entire standalone string (no preprocessing).
func Tokenize(file, src string) ([]Token, error) {
	l := NewLexer(file, src)
	var out []Token
	for {
		t, err := l.Next()
		if err != nil {
			return nil, err
		}
		out = append(out, t)
		if t.Kind == TokEOF {
			return out, nil
		}
	}
}
