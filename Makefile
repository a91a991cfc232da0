# Development targets; `make ci` mirrors .github/workflows/ci.yml.

GO ?= go
FUZZTIME ?= 10s

.PHONY: all build vet staticcheck vulncheck invariants test bench-test race stackd-race fleet-race ssa-differential cache-identity bench-smoke bench fuzz-smoke service-smoke examples-smoke cover race-cover ci

all: build

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# Static analysis beyond vet. Skipped with a notice when the binary is
# absent (the dev container has no network); CI installs it.
staticcheck:
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./... ; \
	else \
		echo "staticcheck not installed; skipping (go install honnef.co/go/tools/cmd/staticcheck@latest)" ; \
	fi

# Known-vulnerability scan over the module and the toolchain's stdlib.
# Skipped with a notice when the binary is absent (the dev container
# has no network); CI installs it.
vulncheck:
	@if command -v govulncheck >/dev/null 2>&1; then \
		govulncheck ./... ; \
	else \
		echo "govulncheck not installed; skipping (go install golang.org/x/vuln/cmd/govulncheck@latest)" ; \
	fi

# Structural invariants (one emitter; append-only diagnostic codes;
# complete cache fingerprint; accounted SSA passes; one per-file
# pipeline; no unshipped options; one SSA construction; one streamed
# frontend; one fragment decision), plus the script's own self-test
# proving the checks can fail.
invariants:
	./scripts/invariants.sh
	./scripts/invariants.sh --self-test

test:
	$(GO) test ./...

# The benchmark module's own tests. bench/ is a separate Go module, so
# the root `go test ./...` never reaches it; this is the gate that
# catches a change to the internal API the benchmark builds against.
bench-test:
	cd bench && $(GO) test ./...

race:
	$(GO) test -race ./...

# The public API and the stackd service layer under the race detector:
# a fast targeted loop for local service work (subsumed by
# `race`/`race-cover`, so `ci` does not repeat it).
stackd-race:
	$(GO) test -race ./stack/... ./cmd/stackd/...

# The fleet fault-injection tests under the race detector: replica
# death mid-sweep, Retry-After backoff, health transitions, auth, and
# the metrics/compression middleware. race-cover already runs these
# once; ci repeats them with -count=2 to shake out scheduling-order
# flakiness in the retry and probing paths specifically.
fleet-race:
	$(GO) test -race -count=2 \
		-run 'Death|DeadReplica|RetryAfter|RetryDisabled|Health|Duplicate|Metrics|Auth|Gzip|Attribution' \
		./stack/shard ./stack/client ./stack/service

# The SSA differential gate under the race detector: byte identity of
# sweep output with Options.SSA across worker counts, the mem2reg /
# dead-store unit and exec-differential tests, and
# the SSA fuzz seed corpus.
ssa-differential:
	$(GO) test -race -run 'SSA' ./internal/...

# The result-cache gate under the race detector: cold-vs-warm byte
# identity of sweep output across worker counts,
# option-fingerprint completeness and sensitivity, name rehydration,
# disk-tier persistence, and the stack/cache unit suite (LRU eviction,
# byte budgets, atomic-rename collisions, crash safety).
cache-identity:
	$(GO) test -race -run 'WarmCache|CacheKey|Fingerprint|CacheCorrupt' ./stack
	$(GO) test -race ./stack/cache

# The perf gate: one iteration each of the Figure 16 Kerberos profile
# plus the parallel sweep, incremental-vs-scratch, SSA chain-heavy,
# SCCP branch-heavy, and warm result-cache benchmarks, each of which
# fails unless its work counts equal the rows pinned in pinned_test.go
# and its allocs/op stay within 1.02x of the pinned value; then one
# iteration of every SAT core benchmark, the Sat-heavy incremental one
# included. Wall-clock performance is gated by bench/ paired runs.
bench-smoke:
	$(GO) test -run NONE -bench 'BenchmarkFig16Kerberos|BenchmarkSweepParallel|BenchmarkIncrementalVsScratch|BenchmarkSSAChainHeavy|BenchmarkSCCPBranchHeavy|BenchmarkWarmSweep' -benchtime=1x
	$(GO) test ./internal/sat -run NONE -bench . -benchtime=1x

# Full paper-figure regeneration (see EXPERIMENTS.md).
bench:
	$(GO) test -run NONE -bench . -benchmem

# Run each native fuzz target briefly (go test allows one -fuzz
# pattern per invocation). Seed corpora live under testdata/fuzz and
# are also replayed by plain `make test`. FuzzEvalMatchesBlast checks
# the concrete term evaluator against blast-then-solve with the inputs
# fixed, at widths on both sides of 64 bits. FuzzSolveAssuming checks the
# incremental SAT core (verdicts, models, failed assumptions and the
# clause arena) against brute force, FuzzVarHeap checks the VSIDS
# heap's layout against the swap-based reference heap, and
# FuzzSolverReset checks that a solver reset after one instance searches
# a second exactly as a new solver does.
# FuzzPreprocessMatchesReference checks the single-buffer macro expander
# against the copy-per-step reference expander: tokens, errors and
# budget charges. FuzzStreamedParseMatchesCollected checks the streamed
# Parse, which pulls tokens through the preprocessor from the lexer,
# against lexing the whole file, preprocessing it and parsing the
# result: the same file or the same error. FuzzFoldMatchesExec checks
# the IR constant folder that SCCP and the Fig. 4 optimizer share
# against the concrete evaluator, per operation at widths 1 to 64. The
# next three are the SSA differential oracles: end-to-end byte identity
# of checker output keyed on SSASharpened, plus per-pass execution
# equivalence for SCCP and loop-invariant UB hoisting. The last,
# FuzzBuildPromotionDifferential, checks SSA construction: ir.Build,
# which promotes the locals whose address is never taken, against the
# build that leaves every local in memory.
fuzz-smoke:
	$(GO) test ./internal/cc -run '^$$' -fuzz '^FuzzTokenize$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/cc -run '^$$' -fuzz '^FuzzPreprocess$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/cc -run '^$$' -fuzz '^FuzzPreprocessMatchesReference$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/cc -run '^$$' -fuzz '^FuzzParse$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/cc -run '^$$' -fuzz '^FuzzStreamedParseMatchesCollected$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/bv -run '^$$' -fuzz '^FuzzTermConstruction$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/bv -run '^$$' -fuzz '^FuzzEvalMatchesBlast$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/sat -run '^$$' -fuzz '^FuzzSolveAssuming$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/sat -run '^$$' -fuzz '^FuzzVarHeap$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/sat -run '^$$' -fuzz '^FuzzSolverReset$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/ir -run '^$$' -fuzz '^FuzzFoldMatchesExec$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/core -run '^$$' -fuzz '^FuzzSSADifferential$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/ir -run '^$$' -fuzz '^FuzzSCCPDifferential$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/ir -run '^$$' -fuzz '^FuzzHoistDifferential$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/ir -run '^$$' -fuzz '^FuzzBuildPromotionDifferential$$' -fuzztime $(FUZZTIME)

# End-to-end service smoke: build stackd + the stack CLI, start two
# replicas, and require a sharded `stack -remote` run (text and jsonl)
# plus a raw POST /v1/sweep to be byte-identical to the local run —
# including after one of the two replicas is SIGKILLed mid-sweep. Also
# scrapes /metrics and exercises bearer-token auth.
service-smoke:
	./scripts/service-smoke.sh

# Run every program under examples/ and diff its stdout against the
# committed examples/<name>/want.txt, so a change that moves what an
# example prints fails here instead of going unnoticed.
examples-smoke:
	@set -e; out=$$(mktemp); trap 'rm -f "$$out"' EXIT; \
	for d in examples/*/; do \
		$(GO) run ./$$d > "$$out"; \
		diff -u $${d}want.txt "$$out"; \
		echo "ok   $$d"; \
	done

# Aggregate coverage over every package.
cover:
	$(GO) test -coverprofile=coverage.out ./...
	$(GO) tool cover -func=coverage.out | tail -n 1

# One test-suite execution serving both the race check and the coverage
# report, as in CI.
race-cover:
	$(GO) test -race -coverprofile=coverage.out ./...
	$(GO) tool cover -func=coverage.out | tail -n 1

ci: vet staticcheck vulncheck invariants build race-cover bench-test fleet-race ssa-differential cache-identity bench-smoke fuzz-smoke service-smoke examples-smoke
