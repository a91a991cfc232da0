// Package repro is a from-scratch Go reproduction of "Towards
// Optimization-Safe Systems: Analyzing the Impact of Undefined
// Behavior" (Wang, Zeldovich, Kaashoek, Solar-Lezama; SOSP 2013) —
// the STACK unstable-code checker, together with every substrate the
// original system depended on: a C frontend with macro origin
// tracking, an SSA IR with dominators and inlining, a CDCL SAT solver
// with a bit-vector layer standing in for Boolector, a UB-exploiting
// optimizer, and models of the 16 compilers surveyed in the paper.
//
// # Public API
//
// The supported entry point is the top-level stack package
// (repro/stack): a context-aware Analyzer built with functional
// options that returns structured Diagnostic values with stable,
// append-only rule codes (STACK-E001, ...), UB-condition codes
// (UB001, ...), and source spans:
//
//	az := stack.New(
//		stack.WithSolverTimeout(5*time.Second),
//		stack.WithWorkers(8),
//	)
//	res, err := az.CheckSource(ctx, "file.c", src)
//	for _, d := range res.Diagnostics {
//		fmt.Println(d.Code, d.Span, d.Category)
//	}
//
// (See the runnable example in package stack for the full flow.)
// Every entry point — CheckSource, CheckFile, CheckSources, Sweep —
// honors its context all the way down to the CDCL search loop:
// cancelling it aborts any query mid-search within one solver check
// interval. Batch and archive runs stream per-file results in input
// order through pluggable sinks (stack.NewTextSink, NewJSONLSink,
// NewSARIFSink); the text sink's output is byte-identical to the
// classic CLI stream. All of that streaming rides one deterministic
// in-order emitter (internal/emit): an admission window bounds
// buffering at O(workers) and delivery is strictly increasing by
// input index, for any worker count. Every in-process entry point runs
// one per-file function (cache lookup, frontend, checker, cache store),
// and the batch and archive runs share one worker pool around it, so
// they share one error rule: the first error in input order stops the
// run and names its source, after every earlier file is delivered.
//
// # Remote and sharded analysis
//
// stack.Checker is the context-first analysis interface
// (CheckSource/CheckSources) that *stack.Analyzer satisfies; two more
// implementations move the same contract across machines:
//
//   - stack/client.Client speaks the stackd v2 HTTP API (POST
//     /v1/analyze, POST /v1/sweep streaming JSONL), decoding sweep
//     results line by line as the server flushes them, with a
//     production transport (bounded dial/TLS/header phases, no
//     overall timeout) and per-replica error attribution;
//   - stack/shard.Dispatcher runs a batch across N replica Checkers
//     as a real fleet: sources are dealt in input order to the
//     least-loaded healthy replica, /healthz probing (StartHealth)
//     and observed transport faults maintain per-replica up/down
//     state, a replica that dies mid-sweep has its unemitted tail
//     retried on the survivors (re-sequenced through the shared
//     emitter), and saturated replicas (HTTP 503) are retried with
//     exponential backoff honoring the server's Retry-After hint.
//
// A sharded remote run is byte-identical to a local single-process
// run on the same inputs and options — even across a replica death —
// the property the service smoke job (make service-smoke) enforces
// end to end, SIGKILL included. For operators, `stack -fleet-status
// -remote host1,host2` probes every replica once and prints the
// Dispatcher.ProbeAll health snapshot as JSON, exiting 1 if any
// replica is down.
//
// # SSA analysis layer (on by default)
//
// The SSA pass stack runs over each function before encoding, and —
// since the global-analysis suite landed — it is on by default:
// stack.New() analyzes in SSA mode, and stack.WithSSA(false) is the
// escape hatch that selects the legacy pipeline, kept alive as the
// differential reference the gates compare against. Either pipeline
// starts from SSA form: ir.Build gives every local and parameter a
// stack slot, as every local starts as an alloca in LLVM, and lifts
// the slots whose address is never taken with the same pruned
// construction (phi placement on the iterated dominance frontier,
// pruned to live-in blocks, then one renaming walk over the dominator
// tree). The stack is:
// mem2reg promotes the address-taken locals whose address does not
// escape to phi-connected values, by that same construction (with
// alias-forwarding through the phis that carry a slot's address
// between blocks); sparse conditional constant propagation
// folds values and branch conditions proved constant by the
// optimistic executable-edge iteration; dead-store elimination drops
// stores overwritten before any load or call; and
// loop-invariant UB hoisting lifts UB-carrying computations out of
// natural loops into the preheader. Promoted values are immutable,
// so the bit-vector layer hash-conses duplicated computation chains
// instead of re-blasting them per opaque load; that hash-consing is
// also the only value numbering, so no pass merges IR values. Stats
// gains promotedAllocas, eliminatedStores, sccpFoldedValues,
// sccpFoldedBranches, sccpUnreachableBlocks, hoistedUbTerms, and
// ssaSharpened (omitted from the JSON trailer when zero, keeping
// legacy bytes unchanged; gvnHits and crossBlockGvnHits are always
// zero and stay only because encodings grow additively). The default
// is differentially gated: sweep output with SSA on is byte-identical
// to the legacy pipeline on the archive corpus (raced across worker
// counts), per-pass fuzz oracles enforce each pass's contract on
// arbitrary programs, scripts/invariants.sh refuses any pass lacking a
// counter or an oracle, and the pinned SSA and legacy rows of the
// chain-heavy and branch-heavy benchmarks hold the solver-work
// reduction exactly (make ssa-differential runs the gate; it is part
// of make ci).
//
// Every counter is declared once, as a field of the internal
// core.Stats that stack.Stats aliases. The field's tags carry its JSON
// key, its Prometheus metric name, and that metric's help text; the
// JSON trailer, the /metrics exposition (JSON and Prometheus), and the
// sweep summary all read that one struct, and Stats.Add sums it by
// reflection.
//
// # Content-addressed result cache
//
// stack.WithCache(c) attaches a cache.Cache (repro/stack/cache) to an
// Analyzer: every entry point — CheckSource, CheckSources, Sweep —
// first looks the file up by a content address, SHA-256 over the
// source bytes plus a canonical fingerprint naming every
// result-affecting option, and on a hit replays the stored reports
// (named as the requesting file) without building
// IR or touching the solver. Execution knobs that cannot change
// results — worker count, sinks — are excluded from the key by
// construction, so analyzers differing only in them share entries. The package ships an in-memory LRU with a byte budget
// (cache.NewMemory), a crash-safe on-disk tier addressed by key hash
// with atomic-rename writes (cache.NewDisk), and a tiered composition
// that promotes disk hits into memory (cache.NewTiered); stackd wires
// them behind -cache-mem and -cache-dir. Hits and misses surface as
// cacheResultHits/cacheResultMisses in stack.Stats, the ?stats=1
// trailer, and /metrics, alongside the cache's own residency counters.
// The gate is the repository's byte-identity bar: a fully warm sweep
// must produce byte-identical output to the cold run that populated
// the cache, across worker counts, with zero solver queries (make
// cache-identity runs it raced; part of make ci). An options fingerprint that silently misses a new field would
// be a correctness bug, so both a reflection test and
// scripts/invariants.sh fail unless every core.Options field is named
// in the fingerprint.
//
// # Commands
//
//   - cmd/stack: the file checker CLI (the paper's stack-build
//     workflow, §4.1), a thin client of the stack package; -remote
//     host1,host2,... runs the same inputs against stackd replicas
//     (-auth-token sends their bearer token), -format selects
//     text/JSONL/SARIF output;
//   - cmd/debian: the §6.4–6.5 synthetic-archive sweep, with
//     streaming text/JSONL/SARIF output and a -remote mode over the
//     batch API;
//   - cmd/stackd: the analysis service — POST /v1/analyze, streaming
//     POST /v1/sweep, /healthz, and GET /metrics (request counts,
//     latency histograms, in-flight gauge, cumulative solver stats;
//     JSON by default, Prometheus text exposition with
//     ?format=prometheus) over HTTP with per-request contexts,
//     bounded concurrency, a listener-level connection cap
//     (-max-conns), the result cache behind -cache-mem/-cache-dir,
//     optional bearer-token auth (-auth-token), streaming-safe gzip
//     compression, and graceful shutdown;
//   - cmd/optsurvey: the §2–3 optimizer/compiler survey tables.
//
// The benchmarks in bench_test.go regenerate every table and figure
// of the paper's evaluation; see EXPERIMENTS.md for the index.
//
// # Performance gates
//
// The benchmarks run the shipped configuration, core.DefaultOptions.
// The work they do is pinned exactly, in one table in pinned_test.go:
// for each gated benchmark, its count rows (every core.Stats counter
// but the scheduling-dependent ones, and the reproduced paper-figure
// counts) and, for the `make bench-smoke` set, an allocs/op value it
// may exceed by at most 1.02x. `make bench-smoke`, part of `make ci`,
// runs that set once and fails on any count that moved. A change
// that alters the work on purpose edits the table. Wall
// clock is gated separately, by the paired runs of the bench/ module
// (bench/README.md). EXPERIMENTS.md describes both.
package repro
