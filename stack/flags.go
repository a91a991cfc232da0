package stack

import (
	"flag"
	"time"
)

// CommonFlags holds the flag values every checker CLI shares: the
// per-query solver budgets and the worker count. Bind them with
// BindCommonFlags and convert with Options, so the flag→option
// translation lives in exactly one place.
type CommonFlags struct {
	// Timeout is -timeout: the per-query solver wall-clock budget.
	Timeout time.Duration
	// MaxConflicts is -max-conflicts: the per-query deterministic
	// conflict budget (0 = unbounded).
	MaxConflicts int64
	// Workers is -j: workers in the per-file pool (0 = one per CPU).
	Workers int
	// LegacyPipeline is -legacy-pipeline: disable the default SSA pass
	// stack and analyze with the legacy encoding — the differential
	// reference mode (see WithSSA).
	LegacyPipeline bool
}

// BindCommonFlags registers the shared checker flags on fs (use
// flag.CommandLine in a main package) and returns the value struct to
// read after fs.Parse.
func BindCommonFlags(fs *flag.FlagSet) *CommonFlags {
	f := &CommonFlags{}
	fs.DurationVar(&f.Timeout, "timeout", 5*time.Second, "per-query solver timeout")
	fs.Int64Var(&f.MaxConflicts, "max-conflicts", 0, "per-query solver conflict budget (0 = unbounded)")
	fs.IntVar(&f.Workers, "j", 0, "concurrent checking workers (0 = one per CPU)")
	fs.BoolVar(&f.LegacyPipeline, "legacy-pipeline", false, "disable the default SSA pass stack (differential reference mode)")
	return f
}

// Options translates the parsed flag values into analyzer options.
func (f *CommonFlags) Options() []Option {
	return []Option{
		WithSolverTimeout(f.Timeout),
		WithMaxConflictsPerQuery(f.MaxConflicts),
		WithWorkers(f.Workers),
		WithSSA(!f.LegacyPipeline),
	}
}
