package sat

import "testing"

// fuzzReader hands out input bytes, then zeros once they run out.
type fuzzReader struct {
	data []byte
	pos  int
}

func (r *fuzzReader) done() bool { return r.pos >= len(r.data) }

func (r *fuzzReader) next() byte {
	if r.done() {
		return 0
	}
	b := r.data[r.pos]
	r.pos++
	return b
}

// lit decodes one literal over nVars variables: the low 7 bits pick
// the variable, the high bit the sign.
func (r *fuzzReader) lit(nVars int) Lit {
	b := r.next()
	return NewLit(Var(int(b&0x7f)%nVars), b&0x80 != 0)
}

// decodeIncremental turns bytes into a CNF over at most 12 variables
// and up to 8 assumption sets of up to 4 literals each.
func decodeIncremental(data []byte) (nVars int, cnf [][]Lit, sets [][]Lit) {
	r := &fuzzReader{data: data}
	nVars = 1 + int(r.next())%12
	nClauses := int(r.next()) % 48
	for i := 0; i < nClauses && !r.done(); i++ {
		cl := make([]Lit, 1+int(r.next())%4)
		for j := range cl {
			cl[j] = r.lit(nVars)
		}
		cnf = append(cnf, cl)
	}
	for len(sets) < 8 && !r.done() {
		set := make([]Lit, int(r.next())%5)
		for j := range set {
			set[j] = r.lit(nVars)
		}
		sets = append(sets, set)
	}
	if len(sets) == 0 {
		sets = [][]Lit{nil}
	}
	return nVars, cnf, sets
}

// withUnits returns cnf plus one unit clause per literal of units.
func withUnits(cnf [][]Lit, units []Lit) [][]Lit {
	out := append([][]Lit(nil), cnf...)
	for _, l := range units {
		out = append(out, []Lit{l})
	}
	return out
}

// FuzzSolveAssuming runs a byte-decoded sequence of assumption sets on
// one incremental solver, reducing the learnt database between calls,
// and checks every answer against brute force: the verdict, the model
// of a Sat call, and the failed-assumption core of an Unsat one. The
// clause arena must stay consistent throughout.
func FuzzSolveAssuming(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{2, 4, 1, 0, 1, 1, 0x80, 0x81, 1, 0, 0x81, 1, 0x80, 1, 2, 0, 0x80, 1, 0x81})
	f.Add([]byte{11, 40, 2, 1, 2, 3, 2, 0x81, 4, 5, 2, 6, 0x87, 8, 3, 9, 10, 11, 0x80,
		2, 0x83, 0x85, 7, 2, 0x82, 0x84, 0x86, 1, 0x8a, 3, 0, 0x81, 2, 4, 1, 0x85, 0x86, 0x87, 0x88})
	f.Add([]byte{5, 30, 3, 0, 1, 2, 3, 3, 0x81, 0x82, 0x83, 0x84, 3, 0x80, 0x81, 2, 3,
		2, 0, 4, 0x84, 2, 0x80, 1, 0x82, 3, 4, 1, 2, 3})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 512 {
			t.Skip("oversized input")
		}
		nVars, cnf, sets := decodeIncremental(data)
		s := New()
		for i := 0; i < nVars; i++ {
			s.NewVar()
		}
		s.LearntFloor = 2
		for _, cl := range cnf {
			s.AddClause(cl...)
		}
		for call, set := range sets {
			st := s.SolveAssuming(set...)
			if want := naiveSat(nVars, withUnits(cnf, set)); st == Unknown || (st == Sat) != want {
				t.Fatalf("call %d under %v: got %v, brute force sat=%v", call, set, st, want)
			}
			if st == Sat {
				for _, cl := range withUnits(cnf, set) {
					ok := false
					for _, l := range cl {
						ok = ok || s.ModelValue(l.Var()) != l.Neg()
					}
					if !ok {
						t.Fatalf("call %d under %v: model violates %v", call, set, cl)
					}
				}
			} else {
				failed := append([]Lit(nil), s.FailedAssumptions()...)
				for _, a := range failed {
					in := false
					for _, b := range set {
						in = in || a == b
					}
					if !in {
						t.Fatalf("call %d under %v: failed assumption %v was not assumed", call, set, a)
					}
				}
				if naiveSat(nVars, withUnits(cnf, failed)) {
					t.Fatalf("call %d under %v: failed assumptions %v are satisfiable with the CNF", call, set, failed)
				}
			}
			arenaConsistent(t, s)
			if call%2 == 0 {
				s.reduceDB()
			} else {
				s.TrimLearnts(1)
			}
			arenaConsistent(t, s)
		}
	})
}
