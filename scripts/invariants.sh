#!/usr/bin/env bash
# invariants.sh — structural invariants the ROADMAP freezes, enforced
# mechanically so a refactor cannot drift past them in review.
#
#   1. One emitter. The ordered-emission pending-map pattern (a
#      map[int]-keyed reorder buffer) lives in internal/emit and
#      nowhere else; a second copy is how the pre-PR-4 sweep and
#      service layers diverged. Any non-test Go file outside
#      internal/emit that builds a pending map[int] buffer fails the
#      check.
#
#   2. Append-only diagnostic codes. Every code ever published in
#      scripts/codes.manifest (STACK-* rule IDs, UB0* condition codes)
#      must still exist verbatim as a quoted string in the non-test
#      sources, and every such literal in the sources must be listed in
#      the manifest. Renaming or deleting a published code breaks
#      downstream suppression files; adding one means appending it to
#      the manifest in the same change.
#
#   3. Complete cache fingerprint. Every field of core.Options and
#      core.Flags must appear by name (FieldName= / Flags.FieldName=)
#      in the options fingerprint of stack/cachekey.go. A new
#      result-affecting option that is not folded into the fingerprint
#      would let a stale cache entry serve wrong results under the new
#      option; this check (and the reflection test
#      TestOptionsFingerprintCoversAllFields) makes that a CI failure
#      instead of a latent correctness bug.
#
#   4. Accounted SSA passes. Every pass invoked by ir.RunSSAPasses must
#      be registered here with a core.Stats counter that exists in the
#      Stats struct and a differential fuzz oracle that exists in the
#      test sources. An optimizing pass without a counter is invisible
#      in production stats; one without a differential oracle can
#      miscompile silently (the SCCP/exec phi-prefix bug was caught by
#      exactly such an oracle). Adding a pass to RunSSAPasses without
#      registering both is a CI failure.
#
#   5. One per-file pipeline. Every in-process analysis (the archive
#      sweep, CheckSources, CheckSource) runs one per-file function,
#      corpus.Sweeper.CheckFile, on one worker pool. `cc.Parse(` may
#      therefore appear in exactly one non-test Go file under stack/
#      and internal/corpus/; a second call site is a second pipeline,
#      with its own cache, stats and error policy to drift apart.
#
#   6. No unshipped options. Every exported With* option declared in a
#      non-test Go file directly in stack/ must be called from a
#      non-test Go file under cmd/ or from stack/flags.go (the flags
#      every CLI shares). An option no command can set is surface
#      nothing ships, kept alive only by its own tests.
#
#   7. One SSA construction. Variable phis are placed in one place:
#      the promotion of internal/ir/ssa.go, which ir.Build runs on the
#      slots of its locals and RunSSAPasses runs again as mem2reg.
#      Outside ssa.go, a non-test Go file under internal/ir may
#      construct an OpPhi only where what it merges is no variable:
#      builder.go at exactly two sites (the ?: merge and the
#      short-circuit merge) and inline.go at one (the merge of an
#      inlined call's returns). A third phi site in the builder is a
#      second SSA construction.
#
#   8. One streamed frontend. cc.Parse pulls tokens through the
#      preprocessor from the lexer and builds no array as long as the
#      file, so its body calls neither Tokenize( nor Preprocess(, the
#      collecting entry points. Outside internal/cc and bench/, no
#      non-test Go file calls cc.Tokenize, Preprocess( or
#      cc.ParseTokens: a caller of those is a second, whole-file
#      frontend beside the streamed one.
#
# Usage:
#   scripts/invariants.sh              # check the repository
#   scripts/invariants.sh --self-test  # prove the checks can fail
set -euo pipefail

ROOT="$(cd "$(dirname "$0")/.." && pwd)"

# go_sources DIR — non-test, non-vendored Go files under DIR.
go_sources() {
	find "$1" -name '*.go' ! -name '*_test.go' ! -path '*/testdata/*' -type f
}

# check_one_emitter DIR — fail if a pending map[int] reorder buffer
# exists outside internal/emit.
check_one_emitter() {
	local root="$1" bad=0 f
	while IFS= read -r f; do
		case "$f" in
		*/internal/emit/*) continue ;;
		esac
		if grep -nE 'pending[[:alnum:]_]*[[:space:]]*:?=.*map\[int\]' "$f" /dev/null; then
			bad=1
		fi
	done < <(go_sources "$root")
	if [ "$bad" -ne 0 ]; then
		echo "invariants: FAIL: pending-map reorder buffer outside internal/emit (one-emitter invariant)" >&2
		return 1
	fi
	echo "invariants: ok: one emitter"
}

# check_codes DIR MANIFEST — bidirectional append-only check between
# the manifest and the quoted diagnostic-code literals in DIR.
check_codes() {
	local root="$1" manifest="$2" bad=0 code
	if [ ! -f "$manifest" ]; then
		echo "invariants: FAIL: missing manifest $manifest" >&2
		return 1
	fi
	local srcs
	srcs="$(go_sources "$root")"
	while IFS= read -r code; do
		[ -n "$code" ] || continue
		# shellcheck disable=SC2086
		if ! grep -qF "\"$code\"" $srcs; then
			echo "invariants: FAIL: published code $code edited or removed (codes are append-only)" >&2
			bad=1
		fi
	done <"$manifest"
	# shellcheck disable=SC2086
	while IFS= read -r code; do
		if ! grep -qxF "$code" "$manifest"; then
			echo "invariants: FAIL: code $code in sources but not in $manifest (append it)" >&2
			bad=1
		fi
	done < <(grep -hoE '"(STACK-[A-Z][0-9]{3}|UB0[0-9]{2})"' $srcs | tr -d '"' | sort -u)
	[ "$bad" -eq 0 ] || return 1
	echo "invariants: ok: diagnostic codes append-only"
}

# struct_fields FILE STRUCT — exported field names of `type STRUCT
# struct { ... }` in FILE, one per line (first brace-balanced block;
# nested literals do not occur in the options structs).
struct_fields() {
	awk -v s="$2" '
		$0 == "type " s " struct {" { in_struct = 1; next }
		in_struct && /^}/ { exit }
		in_struct && $1 ~ /^[A-Z][A-Za-z0-9_]*$/ && NF >= 2 { print $1 }
	' "$1"
}

# check_fingerprint CORE_FILE KEY_FILE — every core.Options field (and
# Flags.<field> for the embedded compiler-flag struct) must be named in
# the fingerprint builder.
check_fingerprint() {
	local core_file="$1" key_file="$2" bad=0 f
	if [ ! -f "$core_file" ] || [ ! -f "$key_file" ]; then
		echo "invariants: FAIL: missing $core_file or $key_file" >&2
		return 1
	fi
	local opts_fields
	opts_fields="$(struct_fields "$core_file" Options)"
	if [ -z "$opts_fields" ]; then
		echo "invariants: FAIL: no Options fields parsed from $core_file" >&2
		return 1
	fi
	while IFS= read -r f; do
		if [ "$f" = "Flags" ]; then
			continue # covered field-by-field below
		fi
		if ! grep -qF "$f=" "$key_file"; then
			echo "invariants: FAIL: core.Options.$f missing from the cache fingerprint in $key_file" >&2
			bad=1
		fi
	done <<<"$opts_fields"
	while IFS= read -r f; do
		if ! grep -qF "Flags.$f=" "$key_file"; then
			echo "invariants: FAIL: core.Flags.$f missing from the cache fingerprint in $key_file" >&2
			bad=1
		fi
	done < <(struct_fields "$core_file" Flags)
	[ "$bad" -eq 0 ] || return 1
	echo "invariants: ok: cache fingerprint covers every core.Options field"
}

# check_ssa_passes IR_FILE STATS_FILE TEST_ROOT — every pass invoked in
# the body of RunSSAPasses (IR_FILE) must have a registry row below
# mapping it to a core.Stats counter (present in STATS_FILE's Stats
# struct) and a differential fuzz oracle (a Fuzz* function present in
# the _test.go sources under TEST_ROOT).
check_ssa_passes() {
	local ir_file="$1" core_file="$2" test_root="$3" bad=0 pass counter oracle row
	if [ ! -f "$ir_file" ] || [ ! -f "$core_file" ]; then
		echo "invariants: FAIL: missing $ir_file or $core_file" >&2
		return 1
	fi
	# Registry: pass function -> core.Stats counter -> differential
	# oracle. PromoteAllocas and DSE predate the per-pass exec fuzzers
	# and are covered by the end-to-end byte-identity oracle.
	local table="PromoteAllocas PromotedAllocas FuzzSSADifferential
SCCP SCCPFoldedValues FuzzSCCPDifferential
GVN GVNHits FuzzGVNDifferential
DSE EliminatedStores FuzzSSADifferential
HoistLoopInvariantUB HoistedUBTerms FuzzHoistDifferential"
	# Pass invocations in the RunSSAPasses body (`x := PassName(f...)`).
	local invoked
	invoked="$(awk '
		/^func RunSSAPasses\(/ { in_fn = 1 }
		in_fn && /^}/ { exit }
		in_fn { print }
	' "$ir_file" | grep -oE ':= [A-Z][A-Za-z0-9]*\(' | sed 's/:= //; s/(//' | sort -u)"
	if [ -z "$invoked" ]; then
		echo "invariants: FAIL: no passes parsed from RunSSAPasses in $ir_file" >&2
		return 1
	fi
	local stats_fields
	stats_fields="$(struct_fields "$core_file" Stats)"
	while IFS= read -r pass; do
		row="$(printf '%s\n' "$table" | awk -v p="$pass" '$1 == p')"
		if [ -z "$row" ]; then
			echo "invariants: FAIL: SSA pass $pass in RunSSAPasses has no registered counter/oracle (add a registry row in check_ssa_passes)" >&2
			bad=1
			continue
		fi
		counter="$(printf '%s' "$row" | awk '{print $2}')"
		oracle="$(printf '%s' "$row" | awk '{print $3}')"
		if ! printf '%s\n' "$stats_fields" | grep -qx "$counter"; then
			echo "invariants: FAIL: SSA pass $pass counter $counter missing from core.Stats in $core_file" >&2
			bad=1
		fi
		if ! grep -rqE "func $oracle\(" --include='*_test.go' "$test_root"; then
			echo "invariants: FAIL: SSA pass $pass differential oracle $oracle not found under $test_root" >&2
			bad=1
		fi
	done <<<"$invoked"
	[ "$bad" -eq 0 ] || return 1
	echo "invariants: ok: every SSA pass has a stats counter and a differential oracle"
}

# check_one_pipeline DIR — fail unless exactly one non-test Go file
# under DIR/stack and DIR/internal/corpus calls cc.Parse.
check_one_pipeline() {
	local root="$1" files n
	files="$(for d in "$root/stack" "$root/internal/corpus"; do
		[ -d "$d" ] && go_sources "$d"
	done | xargs -r grep -lF 'cc.Parse(' || true)"
	n="$(printf '%s' "$files" | grep -c . || true)"
	if [ "$n" -ne 1 ]; then
		echo "invariants: FAIL: cc.Parse( called in $n non-test files under stack/ and internal/corpus/, want exactly 1 (one per-file pipeline):" >&2
		printf '%s\n' "$files" >&2
		return 1
	fi
	echo "invariants: ok: one per-file pipeline"
}

# check_shipped_options DIR — every exported With* function declared in
# a non-test Go file directly in DIR/stack must be called from a
# non-test Go file under DIR/cmd or from DIR/stack/flags.go. Comment
# lines do not count as calls.
check_shipped_options() {
	local root="$1" bad=0 opt opts callers
	opts="$(find "$root/stack" -maxdepth 1 -name '*.go' ! -name '*_test.go' -type f -exec grep -hoE '^func With[A-Z][[:alnum:]_]*\(' {} + | sed 's/^func //; s/($//' | sort -u)"
	if [ -z "$opts" ]; then
		echo "invariants: FAIL: no With* options parsed from $root/stack" >&2
		return 1
	fi
	callers="$({
		[ -d "$root/cmd" ] && go_sources "$root/cmd"
		[ -f "$root/stack/flags.go" ] && echo "$root/stack/flags.go"
	} || true)"
	while IFS= read -r opt; do
		# The second grep reads to the end (no -q): with pipefail, one
		# that exits at its first match can kill the first with SIGPIPE
		# and fail the pipeline although the option is called.
		# shellcheck disable=SC2086
		if [ -z "$callers" ] || ! grep -hv '^[[:space:]]*//' $callers | grep -E "(^|[^[:alnum:]_])$opt\(" >/dev/null; then
			echo "invariants: FAIL: stack.$opt is called from no non-test file under cmd/ nor from stack/flags.go (no unshipped options)" >&2
			bad=1
		fi
	done <<<"$opts"
	[ "$bad" -eq 0 ] || return 1
	echo "invariants: ok: every stack.With* option is shipped"
}

# PHI_SITE matches a line that constructs an OpPhi: a composite
# literal field or an assignment to a value's Op.
PHI_SITE='(Op:[[:space:]]*OpPhi|\.Op[[:space:]]*=[[:space:]]*OpPhi)([^[:alnum:]_]|$)'

# check_one_ssa_construction DIR — the non-test Go files under
# DIR/internal/ir that construct an OpPhi are ssa.go (at least once),
# builder.go (on exactly two lines) and inline.go (on one).
check_one_ssa_construction() {
	local dir="$1/internal/ir" bad=0 f n want
	if [ ! -f "$dir/ssa.go" ] || [ ! -f "$dir/builder.go" ]; then
		echo "invariants: FAIL: missing $dir/ssa.go or $dir/builder.go" >&2
		return 1
	fi
	while IFS= read -r f; do
		n="$(grep -cE "$PHI_SITE" "$f" || true)"
		case "$f" in
		"$dir/ssa.go")
			if [ "$n" -eq 0 ]; then
				echo "invariants: FAIL: $f places no phis (one SSA construction)" >&2
				bad=1
			fi
			continue
			;;
		"$dir/builder.go") want=2 ;;
		"$dir/inline.go") want=1 ;;
		*) want=0 ;;
		esac
		if [ "$n" -ne "$want" ]; then
			echo "invariants: FAIL: $f constructs OpPhi on $n line(s), want $want; variable phis are placed only in ssa.go (one SSA construction)" >&2
			grep -nE "$PHI_SITE" "$f" >&2 || true
			bad=1
		fi
	done < <(go_sources "$dir")
	[ "$bad" -eq 0 ] || return 1
	echo "invariants: ok: one SSA construction"
}

# check_one_streamed_frontend DIR — the body of cc.Parse in
# DIR/internal/cc/parser.go calls neither Tokenize( nor Preprocess(,
# and no non-test Go file outside DIR/internal/cc and DIR/bench calls
# cc.Tokenize, Preprocess( or cc.ParseTokens. Comment lines do not
# count as calls.
check_one_streamed_frontend() {
	local root="$1" parser="$1/internal/cc/parser.go" body bad=0 f
	if [ ! -f "$parser" ]; then
		echo "invariants: FAIL: missing $parser" >&2
		return 1
	fi
	body="$(awk '
		/^func Parse\(/ { in_fn = 1 }
		in_fn { print }
		in_fn && /^}/ { exit }
	' "$parser" | grep -v '^[[:space:]]*//' || true)"
	if [ -z "$body" ]; then
		echo "invariants: FAIL: no func Parse parsed from $parser" >&2
		return 1
	fi
	if printf '%s\n' "$body" | grep -E '(^|[^[:alnum:]_])(Tokenize|Preprocess)\(' >&2; then
		echo "invariants: FAIL: cc.Parse calls Tokenize( or Preprocess( (one streamed frontend)" >&2
		bad=1
	fi
	while IFS= read -r f; do
		case "$f" in
		"$root/internal/cc/"* | "$root/bench/"*) continue ;;
		esac
		if grep -v '^[[:space:]]*//' "$f" | grep -E '(cc\.Tokenize|Preprocess|cc\.ParseTokens)\(' >/dev/null; then
			echo "invariants: FAIL: $f calls cc.Tokenize, Preprocess( or cc.ParseTokens (one streamed frontend)" >&2
			bad=1
		fi
	done < <(go_sources "$root")
	[ "$bad" -eq 0 ] || return 1
	echo "invariants: ok: one streamed frontend"
}

self_test() {
	local tmp pass=0
	tmp="$(mktemp -d)"
	# shellcheck disable=SC2064  # expand now: tmp is local to this function
	trap "rm -rf '$tmp'" EXIT

	# A second pending map outside internal/emit must fail.
	mkdir -p "$tmp/a/stack/service"
	cat >"$tmp/a/stack/service/buffer.go" <<-'EOF'
		package service

		func drain() {
			pending := make(map[int]string)
			_ = pending
		}
	EOF
	if check_one_emitter "$tmp/a" >/dev/null 2>&1; then
		echo "invariants: SELF-TEST FAIL: rogue pending map not detected" >&2
		pass=1
	fi

	# The canonical emitter itself must pass.
	mkdir -p "$tmp/b/internal/emit"
	cat >"$tmp/b/internal/emit/emit.go" <<-'EOF'
		package emit

		func run() {
			pending := make(map[int]int)
			_ = pending
		}
	EOF
	if ! check_one_emitter "$tmp/b" >/dev/null 2>&1; then
		echo "invariants: SELF-TEST FAIL: canonical emitter rejected" >&2
		pass=1
	fi

	# A mutated published code (UB003 -> UB303) must fail both ways:
	# the manifest entry is gone from the sources, and the new literal
	# is not in the manifest.
	mkdir -p "$tmp/c/stack"
	printf 'UB003\n' >"$tmp/c/codes.manifest"
	cat >"$tmp/c/stack/diagnostic.go" <<-'EOF'
		package stack

		const UBCodeSignedOverflow = "UB303"
	EOF
	if check_codes "$tmp/c" "$tmp/c/codes.manifest" >/dev/null 2>&1; then
		echo "invariants: SELF-TEST FAIL: mutated code not detected" >&2
		pass=1
	fi

	# An intact code set must pass.
	mkdir -p "$tmp/d/stack"
	printf 'UB003\n' >"$tmp/d/codes.manifest"
	cat >"$tmp/d/stack/diagnostic.go" <<-'EOF'
		package stack

		const UBCodeSignedOverflow = "UB003"
	EOF
	if ! check_codes "$tmp/d" "$tmp/d/codes.manifest" >/dev/null 2>&1; then
		echo "invariants: SELF-TEST FAIL: intact codes rejected" >&2
		pass=1
	fi

	# A new Options field absent from the fingerprint must fail; the
	# same sources with the field named must pass.
	mkdir -p "$tmp/e"
	cat >"$tmp/e/checker.go" <<-'EOF'
		package core

		type Options struct {
			Timeout time.Duration
			NewKnob bool
			Flags   Flags
		}

		type Flags struct {
			WrapV bool
		}
	EOF
	cat >"$tmp/e/cachekey.go" <<-'EOF'
		package stack

		func optionsFingerprint(o core.Options) []byte {
			return []byte(fmt.Sprintf("Timeout=%d;Flags.WrapV=%t", o.Timeout, o.Flags.WrapV))
		}
	EOF
	if check_fingerprint "$tmp/e/checker.go" "$tmp/e/cachekey.go" >/dev/null 2>&1; then
		echo "invariants: SELF-TEST FAIL: fingerprint missing NewKnob not detected" >&2
		pass=1
	fi
	cat >"$tmp/e/cachekey_full.go" <<-'EOF'
		package stack

		func optionsFingerprint(o core.Options) []byte {
			return []byte(fmt.Sprintf("Timeout=%d;NewKnob=%t;Flags.WrapV=%t", o.Timeout, o.NewKnob, o.Flags.WrapV))
		}
	EOF
	if ! check_fingerprint "$tmp/e/checker.go" "$tmp/e/cachekey_full.go" >/dev/null 2>&1; then
		echo "invariants: SELF-TEST FAIL: complete fingerprint rejected" >&2
		pass=1
	fi

	# An unregistered pass in RunSSAPasses must fail; a registered pass
	# whose counter is absent from core.Stats must fail; the registered
	# pass with counter and oracle in place must pass.
	mkdir -p "$tmp/f/ir" "$tmp/f/core" "$tmp/f/tests"
	cat >"$tmp/f/ir/rogue.go" <<-'EOF'
		package ir

		func RunSSAPasses(f *Func, dom *DomTree) PassStats {
			n := Frobnicate(f)
			return PassStats{Frobnications: n}
		}
	EOF
	cat >"$tmp/f/ir/registered.go" <<-'EOF'
		package ir

		func RunSSAPasses(f *Func, dom *DomTree) PassStats {
			sccp := SCCP(f)
			return PassStats{SCCPFoldedValues: sccp.FoldedValues}
		}
	EOF
	cat >"$tmp/f/core/bare.go" <<-'EOF'
		package core

		type Stats struct {
			Queries int64
		}
	EOF
	cat >"$tmp/f/core/counted.go" <<-'EOF'
		package core

		type Stats struct {
			Queries          int64
			SCCPFoldedValues int64
		}
	EOF
	cat >"$tmp/f/tests/oracle_test.go" <<-'EOF'
		package ir

		func FuzzSCCPDifferential(f *testing.F) {}
	EOF
	if check_ssa_passes "$tmp/f/ir/rogue.go" "$tmp/f/core/counted.go" "$tmp/f/tests" >/dev/null 2>&1; then
		echo "invariants: SELF-TEST FAIL: unregistered SSA pass not detected" >&2
		pass=1
	fi
	if check_ssa_passes "$tmp/f/ir/registered.go" "$tmp/f/core/bare.go" "$tmp/f/tests" >/dev/null 2>&1; then
		echo "invariants: SELF-TEST FAIL: SSA pass with missing counter not detected" >&2
		pass=1
	fi
	if ! check_ssa_passes "$tmp/f/ir/registered.go" "$tmp/f/core/counted.go" "$tmp/f/tests" >/dev/null 2>&1; then
		echo "invariants: SELF-TEST FAIL: fully accounted SSA pass rejected" >&2
		pass=1
	fi

	# core.Stats declares each counter once with its json/prom/help
	# tags; the field parser must still find a tagged counter.
	cat >"$tmp/f/core/tagged.go" <<-'EOF'
		package core

		type Stats struct {
			Queries          int64 `json:"queries" prom:"stackd_solver_queries_total" help:"Solver queries issued."`
			SCCPFoldedValues int64 `json:"sccpFoldedValues,omitempty" prom:"stackd_solver_sccp_folded_values_total" help:"Values SCCP transmuted to constants (WithSSA)."`
		}
	EOF
	if ! check_ssa_passes "$tmp/f/ir/registered.go" "$tmp/f/core/tagged.go" "$tmp/f/tests" >/dev/null 2>&1; then
		echo "invariants: SELF-TEST FAIL: tagged Stats counter not parsed" >&2
		pass=1
	fi

	# One cc.Parse call site under stack/ and internal/corpus/ passes;
	# a second copy of the pipeline in stack/ must fail.
	mkdir -p "$tmp/g/internal/corpus" "$tmp/g/stack"
	cat >"$tmp/g/internal/corpus/sweep.go" <<-'EOF'
		package corpus

		func CheckFile(name, src string) { file, err := cc.Parse(name, src) }
	EOF
	if ! check_one_pipeline "$tmp/g" >/dev/null 2>&1; then
		echo "invariants: SELF-TEST FAIL: single per-file pipeline rejected" >&2
		pass=1
	fi
	cat >"$tmp/g/stack/stack.go" <<-'EOF'
		package stack

		func checkOne(name, src string) { f, err := cc.Parse(name, src) }
	EOF
	if check_one_pipeline "$tmp/g" >/dev/null 2>&1; then
		echo "invariants: SELF-TEST FAIL: second per-file pipeline not detected" >&2
		pass=1
	fi

	# Options called from cmd/ or stack/flags.go pass; a rogue
	# WithUnused, named only in a comment, must fail.
	mkdir -p "$tmp/h/stack" "$tmp/h/cmd/tool"
	cat >"$tmp/h/stack/stack.go" <<-'EOF'
		package stack

		func WithUsed(on bool) Option { return nil }

		func WithFlagged(n int) Option { return nil }
	EOF
	cat >"$tmp/h/stack/flags.go" <<-'EOF'
		package stack

		func (f *Flags) Options() []Option { return []Option{WithFlagged(f.n)} }
	EOF
	cat >"$tmp/h/cmd/tool/main.go" <<-'EOF'
		package main

		// Not stack.WithUnused(true): a comment is not a call.
		func main() { stack.New(stack.WithUsed(true)) }
	EOF
	if ! check_shipped_options "$tmp/h" >/dev/null 2>&1; then
		echo "invariants: SELF-TEST FAIL: shipped options rejected" >&2
		pass=1
	fi
	cat >>"$tmp/h/stack/stack.go" <<-'EOF'

		func WithUnused(on bool) Option { return nil }
	EOF
	if check_shipped_options "$tmp/h" >/dev/null 2>&1; then
		echo "invariants: SELF-TEST FAIL: unshipped WithUnused not detected" >&2
		pass=1
	fi

	# The builder's two expression merges, inlining's return merge and
	# the promotion's phis pass; a third phi site in the builder, or
	# one in any other file, must fail.
	mkdir -p "$tmp/i/internal/ir"
	cat >"$tmp/i/internal/ir/builder.go" <<-'EOF'
		package ir

		func (b *builder) condExpr() *Value { return b.val(&Value{Op: OpPhi, Width: 32}) }

		func (b *builder) shortCircuit() *Value { return b.val(&Value{Op: OpPhi, Width: 1}) }
	EOF
	cat >"$tmp/i/internal/ir/inline.go" <<-'EOF'
		package ir

		func merge(f *Func) *Value { return &Value{ID: f.NewValueID(), Op: OpPhi} }
	EOF
	cat >"$tmp/i/internal/ir/ssa.go" <<-'EOF'
		package ir

		func place(f *Func, w *Block) *Value {
			if w.Term.Op == OpPhi {
				return nil
			}
			return &Value{ID: f.NewValueID(), Op: OpPhi, Block: w}
		}
	EOF
	if ! check_one_ssa_construction "$tmp/i" >/dev/null 2>&1; then
		echo "invariants: SELF-TEST FAIL: the canonical phi sites rejected" >&2
		pass=1
	fi
	cat >>"$tmp/i/internal/ir/builder.go" <<-'EOF'

		func (b *builder) readVar(blk *Block) *Value {
			phi := b.valIn(blk, &Value{})
			phi.Op = OpPhi
			return phi
		}
	EOF
	if check_one_ssa_construction "$tmp/i" >/dev/null 2>&1; then
		echo "invariants: SELF-TEST FAIL: a third phi site in the builder not detected" >&2
		pass=1
	fi
	mkdir -p "$tmp/j/internal/ir"
	cp "$tmp/i/internal/ir/inline.go" "$tmp/i/internal/ir/ssa.go" "$tmp/j/internal/ir/"
	sed -n '1,5p' "$tmp/i/internal/ir/builder.go" >"$tmp/j/internal/ir/builder.go"
	cat >"$tmp/j/internal/ir/braun.go" <<-'EOF'
		package ir

		func newPhi(blk *Block) *Value { return &Value{Op:OpPhi, Block: blk} }
	EOF
	if check_one_ssa_construction "$tmp/j" >/dev/null 2>&1; then
		echo "invariants: SELF-TEST FAIL: a phi site outside ssa.go, builder.go and inline.go not detected" >&2
		pass=1
	fi

	# A streamed cc.Parse, a collecting frontend under bench/ and a
	# caller of cc.Parse pass; a cc.Parse that collects, or a caller
	# of cc.ParseTokens outside internal/cc and bench/, must fail.
	mkdir -p "$tmp/k/internal/cc" "$tmp/k/bench" "$tmp/k/stack"
	cat >"$tmp/k/internal/cc/parser.go" <<-'EOF'
		package cc

		// Parse does not call Preprocess(: it streams.
		func Parse(filename, src string) (*File, error) {
			pp := NewPreprocessor()
			return newParser(filename, pp.stream(NewLexer(src), pp.expandSource)).parse()
		}

		func ParseTokens(filename string, toks []Token) (*File, error) {
			return newParser(filename, &tokenSlice{toks: toks}).parse()
		}
	EOF
	cat >"$tmp/k/bench/trace.go" <<-'EOF'
		package main

		func trace(name, src string) { toks, _ := cc.NewPreprocessor().Preprocess(name, src); cc.ParseTokens(name, toks) }
	EOF
	cat >"$tmp/k/stack/stack.go" <<-'EOF'
		package stack

		func checkOne(name, src string) { f, err := cc.Parse(name, src) }
	EOF
	if ! check_one_streamed_frontend "$tmp/k" >/dev/null 2>&1; then
		echo "invariants: SELF-TEST FAIL: the streamed frontend rejected" >&2
		pass=1
	fi
	mkdir -p "$tmp/l"
	cp -r "$tmp/k/internal" "$tmp/k/bench" "$tmp/k/stack" "$tmp/l/"
	cat >"$tmp/l/internal/cc/parser.go" <<-'EOF'
		package cc

		func Parse(filename, src string) (*File, error) {
			toks, err := NewPreprocessor().Preprocess(filename, src)
			if err != nil {
				return nil, err
			}
			return ParseTokens(filename, toks)
		}
	EOF
	if check_one_streamed_frontend "$tmp/l" >/dev/null 2>&1; then
		echo "invariants: SELF-TEST FAIL: a cc.Parse that collects not detected" >&2
		pass=1
	fi
	cat >>"$tmp/k/stack/stack.go" <<-'EOF'

		func checkToks(name string, toks []cc.Token) { f, err := cc.ParseTokens(name, toks) }
	EOF
	if check_one_streamed_frontend "$tmp/k" >/dev/null 2>&1; then
		echo "invariants: SELF-TEST FAIL: a cc.ParseTokens caller outside internal/cc and bench/ not detected" >&2
		pass=1
	fi

	if [ "$pass" -ne 0 ]; then
		return 1
	fi
	echo "invariants: self-test ok (20 cases)"
}

if [ "${1:-}" = "--self-test" ]; then
	self_test
	exit $?
fi

check_one_emitter "$ROOT"
check_codes "$ROOT" "$ROOT/scripts/codes.manifest"
check_fingerprint "$ROOT/internal/core/checker.go" "$ROOT/stack/cachekey.go"
check_ssa_passes "$ROOT/internal/ir/analysis.go" "$ROOT/internal/core/stats.go" "$ROOT/internal"
check_one_pipeline "$ROOT"
check_shipped_options "$ROOT"
check_one_ssa_construction "$ROOT"
check_one_streamed_frontend "$ROOT"
