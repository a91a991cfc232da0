package stack

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/compilers"
	"repro/internal/core"
)

// Rule codes identify which of STACK's algorithms (paper §4.4)
// produced a diagnostic. The registry is append-only: a code, once
// published, never changes meaning or disappears, so downstream
// consumers (SARIF viewers, report-sharing pipelines, suppression
// lists) can key on it.
const (
	// RuleElimination: a reachable code fragment becomes unreachable
	// under the well-defined program assumption (Fig. 5).
	RuleElimination = "STACK-E001"
	// RuleSimplifyBool: a boolean expression folds to a constant under
	// the assumption (Fig. 6, boolean oracle).
	RuleSimplifyBool = "STACK-S001"
	// RuleSimplifyAlgebra: a comparison simplifies algebraically under
	// the assumption (Fig. 6, algebra oracle).
	RuleSimplifyAlgebra = "STACK-S002"
)

// ruleCodes maps the internal algorithm enum to stable codes.
var ruleCodes = [...]string{
	core.AlgoElimination:     RuleElimination,
	core.AlgoSimplifyBool:    RuleSimplifyBool,
	core.AlgoSimplifyAlgebra: RuleSimplifyAlgebra,
}

// UB-condition codes, one per row of the paper's Figure 3, in figure
// order. Append-only, like the rule codes.
const (
	UBCodePointerOverflow = "UB001"
	UBCodeNullDeref       = "UB002"
	UBCodeSignedOverflow  = "UB003"
	UBCodeDivByZero       = "UB004"
	UBCodeOversizedShift  = "UB005"
	UBCodeBufferOverflow  = "UB006"
	UBCodeAbsOverflow     = "UB007"
	UBCodeMemcpyOverlap   = "UB008"
	UBCodeUseAfterFree    = "UB009"
	UBCodeUseAfterRealloc = "UB010"
)

var ubCodes = [...]string{
	core.UBPointerOverflow: UBCodePointerOverflow,
	core.UBNullDeref:       UBCodeNullDeref,
	core.UBSignedOverflow:  UBCodeSignedOverflow,
	core.UBDivByZero:       UBCodeDivByZero,
	core.UBOversizedShift:  UBCodeOversizedShift,
	core.UBBufferOverflow:  UBCodeBufferOverflow,
	core.UBAbsOverflow:     UBCodeAbsOverflow,
	core.UBMemcpyOverlap:   UBCodeMemcpyOverlap,
	core.UBUseAfterFree:    UBCodeUseAfterFree,
	core.UBUseAfterRealloc: UBCodeUseAfterRealloc,
}

// Span is a source position. Line and Col are 1-based; a zero Line
// means the position is unknown.
type Span struct {
	File string `json:"file,omitempty"`
	Line int    `json:"line"`
	Col  int    `json:"col"`
}

// String renders the span in the frontend's classic position format.
func (s Span) String() string {
	if s.File == "" {
		return fmt.Sprintf("%d:%d", s.Line, s.Col)
	}
	return fmt.Sprintf("%s:%d:%d", s.File, s.Line, s.Col)
}

// UBCondition is one undefined-behavior condition in a diagnostic's
// minimal set (Fig. 8): the machine-readable code, the human-readable
// kind, and the source span of the construct carrying it.
type UBCondition struct {
	Code string `json:"code"`
	Kind string `json:"kind"`
	Span Span   `json:"span"`
}

// Diagnostic is one unstable-code finding in machine-consumable form:
// a stable rule code, the algorithm and function, source spans, the
// proposed simplification (for simplification rules), the §6.2
// category, and the minimal UB-condition set.
type Diagnostic struct {
	// Code is the stable rule code (RuleElimination, ...).
	Code string `json:"code"`
	// Algo is the human-readable algorithm name.
	Algo string `json:"algo"`
	// Function is the enclosing function.
	Function string `json:"function"`
	// Span locates the unstable fragment.
	Span Span `json:"span"`
	// Simplified is the proposed replacement expression for
	// simplification diagnostics ("" for elimination).
	Simplified string `json:"simplified,omitempty"`
	// Origin names the macro or inlined function that generated the
	// fragment; "" for programmer-written code.
	Origin string `json:"origin,omitempty"`
	// Category is the §6.2 classification against the modeled compiler
	// survey (non-optimization bug, urgent optimization bug, time
	// bomb, redundant code).
	Category string `json:"category"`
	// UB is the minimal set of UB conditions that made the fragment
	// unstable.
	UB []UBCondition `json:"ub,omitempty"`
}

// diagnosticOf converts one internal report.
func diagnosticOf(r *core.Report) Diagnostic {
	d := Diagnostic{
		Code:       ruleCodes[r.Algo],
		Algo:       r.Algo.String(),
		Function:   r.Func,
		Span:       Span{File: r.File, Line: r.Pos.Line, Col: r.Pos.Col},
		Simplified: r.Simplified,
		Origin:     r.Origin,
		Category:   core.Classify(r, compilers.AnyModelDiscards).String(),
	}
	for _, u := range r.UBConds {
		d.UB = append(d.UB, UBCondition{
			Code: ubCodes[u.Kind],
			Kind: u.Kind.String(),
			Span: Span{File: r.File, Line: u.Pos.Line, Col: u.Pos.Col},
		})
	}
	return d
}

func diagnosticsOf(reports []*core.Report) []Diagnostic {
	if len(reports) == 0 {
		return nil
	}
	out := make([]Diagnostic, len(reports))
	for i, r := range reports {
		out[i] = diagnosticOf(r)
	}
	return out
}

// String renders the diagnostic in the checker's classic text form.
// The format is frozen: it is byte-identical to the internal report
// rendering, which the text sink and FormatDiagnostics rely on.
func (d Diagnostic) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s: unstable code in %s [%s]", d.Span, d.Function, d.Algo)
	if d.Simplified != "" {
		fmt.Fprintf(&b, " — simplifies to %s", d.Simplified)
	}
	if len(d.UB) > 0 {
		b.WriteString("\n  due to undefined behavior:")
		for _, u := range d.UB {
			fmt.Fprintf(&b, "\n    %s at %s", u.Kind, u.Span)
		}
	}
	return b.String()
}

// FormatDiagnostics renders diagnostics in the stable textual form the
// classic CLI prints — byte-identical to the internal checker's
// FormatReports output for the same findings.
func FormatDiagnostics(diags []Diagnostic) string {
	if len(diags) == 0 {
		return "no unstable code found\n"
	}
	var b strings.Builder
	for _, d := range diags {
		b.WriteString(d.String())
		b.WriteByte('\n')
	}
	fmt.Fprintf(&b, "%d report(s)\n", len(diags))
	return b.String()
}

// FileResult is one input's finished analysis as delivered to sinks
// and streaming callbacks, in input order.
type FileResult struct {
	// Index is the input's position in the batch or archive; callbacks
	// observe strictly increasing indices 0, 1, 2, ...
	Index int `json:"index"`
	// Package is the archive package for sweep results ("" for plain
	// source batches).
	Package string `json:"package,omitempty"`
	// File is the input's display name.
	File string `json:"file"`
	// Functions counts analyzed functions (sweep results only).
	Functions int `json:"functions,omitempty"`
	// Diagnostics are the findings, in deterministic order.
	Diagnostics []Diagnostic `json:"diagnostics,omitempty"`
	// BuildTime and AnalysisTime are wall-clock measurements and vary
	// run to run; everything else is deterministic.
	BuildTime    time.Duration `json:"buildTimeNs,omitempty"`
	AnalysisTime time.Duration `json:"analysisTimeNs,omitempty"`
}
