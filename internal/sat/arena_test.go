package sat

import (
	"reflect"
	"testing"
)

// hasPointers reports whether values of t contain any pointer the
// garbage collector would have to scan.
func hasPointers(t reflect.Type) bool {
	switch t.Kind() {
	case reflect.Struct:
		for i := 0; i < t.NumField(); i++ {
			if hasPointers(t.Field(i).Type) {
				return true
			}
		}
		return false
	case reflect.Array:
		return t.Len() > 0 && hasPointers(t.Elem())
	case reflect.Bool, reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64,
		reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr,
		reflect.Float32, reflect.Float64, reflect.Complex64, reflect.Complex128:
		return false
	}
	return true
}

// TestSolverStoragePointerFree keeps watchers and per-variable info
// free of pointers and 8 bytes wide. When they held clause pointers,
// GC scanning of the watch lists and write barriers on every enqueue,
// backtrack and attach were measured at about 12% of the archive-sweep
// benchmark's CPU time.
func TestSolverStoragePointerFree(t *testing.T) {
	for _, v := range []any{watcher{}, varInfo{}} {
		typ := reflect.TypeOf(v)
		if hasPointers(typ) {
			t.Errorf("%v holds a pointer", typ)
		}
		if typ.Size() != 8 {
			t.Errorf("%v is %d bytes, want 8", typ, typ.Size())
		}
	}
}

func mustPanic(t *testing.T, want string, f func()) {
	t.Helper()
	defer func() {
		if got := recover(); got != want {
			t.Fatalf("panic = %v, want %q", got, want)
		}
	}()
	f()
}

// TestVariableLimit: literals are stored in 32 bits, so NewVar refuses
// to go past 2^31-1 variables.
func TestVariableLimit(t *testing.T) {
	if top := NewLit(maxVars-1, true); uint64(top) > uint64(^uint32(0)) {
		t.Fatalf("literal %d of the last variable does not fit in 32 bits", top)
	}
	s := New()
	s.nVars = maxVars // as if every variable were allocated
	mustPanic(t, "sat: variable limit", func() { s.NewVar() })
}

// TestArenaLimit: a clause that would take the arena past maxArena
// words is refused, since a cref must stay clear of binFlag.
func TestArenaLimit(t *testing.T) {
	checkArena(maxArena-3, 3) // fills the arena exactly: allowed
	mustPanic(t, "sat: clause arena limit", func() { checkArena(maxArena-3, 4) })
	if cref(maxArena-3)&binFlag != 0 {
		t.Fatal("the last cref the arena allows collides with binFlag")
	}
}
