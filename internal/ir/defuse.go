package ir

// DefUse is the def-use index of one Func: for every value, the
// instructions and terminators that take it as an operand. Users are
// listed in block order, each block's instructions before its
// terminator, with one entry per operand slot. All lists share one
// backing array, addressed by Value.ID (compressed sparse rows).
type DefUse struct {
	start []int32 // users of the value with ID i: users[start[i]:start[i+1]]
	users []*Value
}

// NewDefUse indexes the uses of f's values. It relies on the ID
// invariant of NewValueID; nil phi operands have no entry.
func NewDefUse(f *Func) DefUse {
	n := f.numValueIDs()
	// Count each value's uses at start[ID+2], so that the prefix sum
	// leaves start[ID+1] at the value's first slot; filling then
	// advances start[ID+1] to the end of its run, which is where the
	// next value's run begins.
	start := make([]int32, n+2)
	for _, b := range f.Blocks {
		for v := range b.All() {
			for _, a := range v.Args {
				if a != nil {
					start[a.ID+2]++
				}
			}
		}
	}
	for i := 2; i < len(start); i++ {
		start[i] += start[i-1]
	}
	users := make([]*Value, start[n+1])
	for _, b := range f.Blocks {
		for v := range b.All() {
			for _, a := range v.Args {
				if a != nil {
					users[start[a.ID+1]] = v
					start[a.ID+1]++
				}
			}
		}
	}
	return DefUse{start: start[:n+1], users: users}
}

// Users returns the values that use v, in the order described at
// DefUse. The slice aliases the index and must not be modified.
func (du DefUse) Users(v *Value) []*Value {
	return du.users[du.start[v.ID]:du.start[v.ID+1]]
}

// NumUses returns the total number of operand slots the index holds.
func (du DefUse) NumUses() int { return len(du.users) }
