package core

import (
	"fmt"
	"strings"

	"repro/internal/cc"
)

// UBRef references one undefined-behavior condition in a report: its
// kind and the source position, in the report's file, of the construct
// carrying it.
type UBRef struct {
	Kind UBKind
	Pos  cc.Pos
}

// Report is one unstable-code finding (paper §4.5): the fragment the
// solver-based optimizer discarded or simplified, together with the
// minimal set of UB conditions that made it unstable. File names the
// translation unit every position of the report lies in; CheckProgram
// sets it from ir.Program.File.
type Report struct {
	File       string
	Func       string
	Algo       Algo
	Pos        cc.Pos
	Simplified string // proposed e' for simplification reports
	UBConds    []UBRef
	Origin     string // macro/inline origin, "" for programmer-written
}

func (r *Report) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s: unstable code in %s [%s]", r.Pos.In(r.File), r.Func, r.Algo)
	if r.Simplified != "" {
		fmt.Fprintf(&b, " — simplifies to %s", r.Simplified)
	}
	if len(r.UBConds) > 0 {
		b.WriteString("\n  due to undefined behavior:")
		for _, u := range r.UBConds {
			fmt.Fprintf(&b, "\n    %s at %s", u.Kind, u.Pos.In(r.File))
		}
	}
	return b.String()
}

// HasUB reports whether the minimal set includes kind k.
func (r *Report) HasUB(k UBKind) bool {
	for _, u := range r.UBConds {
		if u.Kind == k {
			return true
		}
	}
	return false
}

// Category is the four-way classification of §6.2.
type Category int

// Report categories (paper §6.2).
const (
	// CategoryNonOptimization: causes problems regardless of
	// optimizations (e.g. the Postgres division of Fig. 10).
	CategoryNonOptimization Category = iota
	// CategoryUrgent: a surveyed compiler already discards the code.
	CategoryUrgent
	// CategoryTimeBomb: no surveyed compiler discards it today.
	CategoryTimeBomb
	// CategoryRedundant: a false warning; useless-but-harmless code.
	CategoryRedundant
)

var categoryNames = [...]string{
	"non-optimization bug", "urgent optimization bug", "time bomb", "redundant code",
}

func (c Category) String() string { return categoryNames[c] }

// DiscardPredicate reports whether some compiler model discards
// unstable code caused by UB kind k — supplied by the compilers
// package to avoid an import cycle.
type DiscardPredicate func(k UBKind) bool

// Classify applies the §6.2 decision procedure to a report:
// immediately-dangerous UB (division trap, null dereference before the
// check) is a non-optimization bug; UB a current compiler exploits is
// urgent; everything else is a time bomb. Redundant-code
// classification needs ground truth about intent and is the corpus's
// job (§6.2.4).
func Classify(r *Report, discards DiscardPredicate) Category {
	// Division by zero / overflow traps at runtime on x86 regardless
	// of optimization; null dereference before a check oopses.
	if r.HasUB(UBDivByZero) {
		return CategoryNonOptimization
	}
	if r.HasUB(UBNullDeref) && r.Algo != AlgoElimination {
		// The dereference precedes the (unstable) check: the program
		// already misbehaves on a null input without any optimizer.
		return CategoryNonOptimization
	}
	if discards != nil {
		for _, u := range r.UBConds {
			if discards(u.Kind) {
				return CategoryUrgent
			}
		}
		return CategoryTimeBomb
	}
	return CategoryUrgent
}

// FormatReports renders reports in the stable textual form used by
// cmd/stack and the examples.
func FormatReports(reports []*Report) string {
	if len(reports) == 0 {
		return "no unstable code found\n"
	}
	var b strings.Builder
	for _, r := range reports {
		b.WriteString(r.String())
		b.WriteByte('\n')
	}
	fmt.Fprintf(&b, "%d report(s)\n", len(reports))
	return b.String()
}

// CountByUBKind tallies reports per UB kind (paper Fig. 18); a report
// with a multi-condition minimal set counts once per kind involved.
func CountByUBKind(reports []*Report) map[UBKind]int {
	out := map[UBKind]int{}
	for _, r := range reports {
		seen := map[UBKind]bool{}
		for _, u := range r.UBConds {
			if !seen[u.Kind] {
				seen[u.Kind] = true
				out[u.Kind]++
			}
		}
	}
	return out
}

// CountByAlgo tallies reports per algorithm (paper Fig. 17).
func CountByAlgo(reports []*Report) map[Algo]int {
	out := map[Algo]int{}
	for _, r := range reports {
		out[r.Algo]++
	}
	return out
}

// MinSetSizeHistogram returns how many reports have minimal UB sets of
// each size (paper §6.5: 69,301 with one condition, 2,579 with more,
// up to eight).
func MinSetSizeHistogram(reports []*Report) map[int]int {
	out := map[int]int{}
	for _, r := range reports {
		out[len(r.UBConds)]++
	}
	return out
}
