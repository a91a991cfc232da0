// Package cc implements a compiler frontend for the C subset that the
// STACK paper's analysis consumes: a lexer, a preprocessor with macro
// origin tracking (paper §4.2), a recursive-descent parser, and a type
// checker. It stands in for the clang frontend of the original system.
//
// The subset covers every construct with undefined behavior listed in
// the paper's Figure 3 — pointer and integer arithmetic, memory
// access, division, shifts, array indexing — plus the library calls
// (abs, memcpy, free, realloc) whose UB conditions STACK models.
package cc

import "fmt"

// Pos is a source position within the translation unit. The unit is
// one file, so its name is stated once, by whatever holds the unit
// (File.Name, Error.File), and not by each position.
type Pos struct {
	Line int
	Col  int
}

func (p Pos) String() string { return fmt.Sprintf("%d:%d", p.Line, p.Col) }

// In renders p as "file:line:col", or "line:col" when file is empty.
func (p Pos) In(file string) string {
	if file == "" {
		return p.String()
	}
	return fmt.Sprintf("%s:%d:%d", file, p.Line, p.Col)
}

// IsValid reports whether the position is set.
func (p Pos) IsValid() bool { return p.Line > 0 }

// TokKind enumerates token kinds.
type TokKind uint8

// Token kinds.
const (
	TokEOF TokKind = iota
	TokIdent
	TokKeyword
	TokNumber
	TokChar
	TokString
	TokPunct
)

var tokKindNames = map[TokKind]string{
	TokEOF: "EOF", TokIdent: "identifier", TokKeyword: "keyword",
	TokNumber: "number", TokChar: "char", TokString: "string",
	TokPunct: "punctuator",
}

func (k TokKind) String() string { return tokKindNames[k] }

// Token is a lexical token. Text preserves the source spelling, with
// line splices removed. LineStart marks the first token of a logical
// line and Spaced a token that white space or a comment precedes; the
// preprocessor reads directive lines and function-like macro
// definitions from them. Origin, when nonempty, names the macro whose
// expansion produced this token — the hook STACK's origin-tracking
// false-warning suppression (paper §4.2) relies on.
type Token struct {
	Kind      TokKind
	LineStart bool
	Spaced    bool
	Text      string
	Pos       Pos
	Origin    string
}

func (t Token) String() string {
	return fmt.Sprintf("%s %q at %s", t.Kind, t.Text, t.Pos)
}

// Is reports whether the token is a punctuator or keyword with the
// given spelling.
func (t Token) Is(text string) bool {
	return (t.Kind == TokPunct || t.Kind == TokKeyword) && t.Text == text
}

var keywords = map[string]bool{
	"auto": true, "break": true, "case": true, "char": true,
	"const": true, "continue": true, "default": true, "do": true,
	"double": true, "else": true, "enum": true, "extern": true,
	"float": true, "for": true, "goto": true, "if": true,
	"inline": true, "int": true, "long": true, "register": true,
	"return": true, "short": true, "signed": true, "sizeof": true,
	"static": true, "struct": true, "switch": true, "typedef": true,
	"union": true, "unsigned": true, "void": true, "volatile": true,
	"while": true,
}

// Error is a frontend diagnostic carrying a source position. File
// names the translation unit; it is set where the error leaves the
// frontend (Tokenize, Preprocess, Parse, ParseTokens, Check, ir.Build).
type Error struct {
	File string
	Pos  Pos
	Msg  string
}

func (e *Error) Error() string { return fmt.Sprintf("%s: %s", e.Pos.In(e.File), e.Msg) }

// inFile names file in err when err is an *Error.
func inFile(err error, file string) error {
	if e, ok := err.(*Error); ok {
		e.File = file
	}
	return err
}

func errf(pos Pos, format string, args ...interface{}) *Error {
	return &Error{Pos: pos, Msg: fmt.Sprintf(format, args...)}
}
