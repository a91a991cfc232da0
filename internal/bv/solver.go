package bv

import (
	"math/big"

	"repro/internal/sat"
)

// Result is the verdict of a satisfiability query.
type Result int

// Query verdicts.
const (
	Unknown Result = iota // solver timed out or exhausted its budget
	Sat
	Unsat
)

func (r Result) String() string {
	switch r {
	case Sat:
		return "sat"
	case Unsat:
		return "unsat"
	default:
		return "unknown"
	}
}

// Solver is the engine under a Session: one CDCL SAT core and the
// blaster that lowers the session's terms into it, each term once.
// It has no query API of its own. A Session issues every query, always
// under assumptions (Boolector's solve-under-assumptions, which STACK
// used), and nothing is ever added to the SAT core as a permanent
// constraint, so every clause in it is a Tseitin definition of a
// blasted term, the unit fixing the constant-true literal, or learnt
// from those. A Solver outlives its session only to be handed to the
// next one (Session.Release, NewSession), which reuses its storage.
type Solver struct {
	bld        *Builder
	sat        *sat.Solver
	bl         *blaster
	modelValid bool // last verdict was Sat from a real SAT run
}

// newSolver returns a solver for terms created by bld.
func newSolver(bld *Builder) *Solver {
	s := sat.New()
	return &Solver{bld: bld, sat: s, bl: newBlaster(s)}
}

// reset puts s back in the state newSolver(bld) gives, keeping the
// storage of its SAT core and of its blaster cache.
func (s *Solver) reset(bld *Builder) {
	s.bl.reset()
	*s = Solver{bld: bld, sat: s.sat, bl: s.bl}
}

// litFor blasts a width-1 term and returns its literal.
func (s *Solver) litFor(t *Term) sat.Lit {
	if t.Width() != 1 {
		panic("bv: satisfiability query on non-boolean term")
	}
	return s.bl.blast(s.bld, t)[0]
}

// value returns the value of term t under the SAT core's model of the
// last Sat verdict, and panics when there is none: a Sat decided
// without the SAT core has no model here, and stale bits are worse
// than a crash.
//
// Variables and constants that were not part of the solved query (for
// example a variable the rewrite engine folded out of every
// assumption) are unconstrained by the model; their free bits read as
// zero, a don't-care completion that satisfies the query like any
// other. A *composite* term that was never blasted has no meaningful
// model value — its defining clauses postdate the model — so asking
// for one panics instead of returning bits that violate the term's own
// semantics.
func (s *Solver) value(t *Term) *big.Int {
	if !s.modelValid {
		panic("bv: Value called without a model (last verdict was not a SAT-core Sat)")
	}
	if t.op != OpVar && t.op != OpConst && !s.bl.has(t) {
		panic("bv: Value of a composite term that was not part of the solved query")
	}
	lits := s.bl.blast(s.bld, t)
	v := new(big.Int)
	for i, l := range lits {
		bit := s.sat.ModelValue(l.Var())
		if l.Neg() {
			bit = !bit
		}
		if bit {
			v.SetBit(v, i, 1)
		}
	}
	return v
}
