package stack

import "context"

// Checker is the context-first analysis surface shared by every way of
// running the checker: in process (*Analyzer), over HTTP against a
// stackd replica (stack/client), or fanned across several replicas
// (stack/shard). Code written against Checker — the CLIs, the service
// batch endpoint — is oblivious to where the solver actually runs.
//
// Implementations must honor the CheckSources streaming contract:
// emit is called once per source, in strictly increasing input order,
// as soon as that source and every earlier one have finished; on the
// first error (in input order) emission stops and the error, carrying
// the source name, is returned. Diagnostics must be identical across
// implementations for the same inputs and options — the sharded
// remote run is byte-identical to a local one.
type Checker interface {
	// CheckSource analyzes one named C translation unit.
	CheckSource(ctx context.Context, name, src string) (*Result, error)
	// CheckSources analyzes a batch, streaming per-source results to
	// emit (which may be nil) in input order.
	CheckSources(ctx context.Context, srcs []Source, emit func(FileResult)) (Stats, error)
}

// Analyzer is the in-process Checker.
var _ Checker = (*Analyzer)(nil)
