package service

import (
	"bytes"
	"encoding/json"
	"reflect"
	"strings"
	"testing"

	"repro/stack"
)

// goldenStats sets every stack.Stats field to a distinct non-zero
// value, so each counter's key, position, and value are visible in the
// pinned encodings below.
func goldenStats(t *testing.T) stack.Stats {
	t.Helper()
	st := stack.Stats{
		Functions:             1,
		Blocks:                2,
		Queries:               3,
		Timeouts:              4,
		RewriteHits:           5,
		TermsCreated:          6,
		FastPaths:             7,
		TermsBlasted:          8,
		BlastPasses:           9,
		LearntsReused:         10,
		CacheHits:             11,
		LearntsDropped:        12,
		ArenaBytesReused:      13,
		PromotedAllocas:       14,
		EliminatedStores:      15,
		GVNHits:               16,
		SCCPFoldedValues:      17,
		SCCPFoldedBranches:    18,
		SCCPUnreachableBlocks: 19,
		CrossBlockGVNHits:     20,
		HoistedUBTerms:        21,
		DomOrderedSkips:       22,
		SSASharpened:          23,
		CacheResultHits:       24,
		CacheResultMisses:     25,
		WitnessHits:           26,
		FilePanics:            27,
	}
	v := reflect.ValueOf(st)
	for i := 0; i < v.NumField(); i++ {
		if v.Field(i).IsZero() {
			t.Fatalf("stack.Stats.%s is not set by goldenStats; add it and extend the pinned encodings", v.Type().Field(i).Name)
		}
	}
	return st
}

// TestStatsEncodingsPinned pins the bytes of both public renderings of
// stack.Stats: the JSON object carried by results, ?stats=1 trailers
// and /metrics, and the solver block of the Prometheus exposition.
// Key names, key order, metric names, help texts, and metric order are
// all part of the contract.
func TestStatsEncodingsPinned(t *testing.T) {
	st := goldenStats(t)

	raw, err := json.Marshal(st)
	if err != nil {
		t.Fatal(err)
	}
	const wantJSON = `{"functions":1,"blocks":2,"queries":3,"timeouts":4,"rewriteHits":5,"termsCreated":6,"fastPaths":7,"termsBlasted":8,"blastPasses":9,"learntsReused":10,"cacheHits":11,"learntsDropped":12,"arenaBytesReused":13,"promotedAllocas":14,"eliminatedStores":15,"gvnHits":16,"sccpFoldedValues":17,"sccpFoldedBranches":18,"sccpUnreachableBlocks":19,"crossBlockGvnHits":20,"hoistedUbTerms":21,"domOrderedSkips":22,"ssaSharpened":23,"cacheResultHits":24,"cacheResultMisses":25,"witnessHits":26,"filePanics":27}`
	if string(raw) != wantJSON {
		t.Errorf("stats JSON changed:\n got  %s\n want %s", raw, wantJSON)
	}

	var buf bytes.Buffer
	writePrometheus(&buf, metricsSnapshot{Solver: st})
	out := buf.String()
	i := strings.Index(out, "# HELP stackd_solver_functions_total ")
	if i < 0 {
		t.Fatalf("no solver block in exposition:\n%s", out)
	}
	const wantProm = `# HELP stackd_solver_functions_total Functions analyzed.
# TYPE stackd_solver_functions_total counter
stackd_solver_functions_total 1
# HELP stackd_solver_blocks_total Basic blocks analyzed.
# TYPE stackd_solver_blocks_total counter
stackd_solver_blocks_total 2
# HELP stackd_solver_queries_total Solver queries issued.
# TYPE stackd_solver_queries_total counter
stackd_solver_queries_total 3
# HELP stackd_solver_timeouts_total Solver queries that hit the per-query timeout.
# TYPE stackd_solver_timeouts_total counter
stackd_solver_timeouts_total 4
# HELP stackd_solver_rewrite_hits_total Term constructions answered by word-level rewrites.
# TYPE stackd_solver_rewrite_hits_total counter
stackd_solver_rewrite_hits_total 5
# HELP stackd_solver_terms_created_total Interned term nodes created.
# TYPE stackd_solver_terms_created_total counter
stackd_solver_terms_created_total 6
# HELP stackd_solver_fast_paths_total Queries decided from constants without CDCL search.
# TYPE stackd_solver_fast_paths_total counter
stackd_solver_fast_paths_total 7
# HELP stackd_solver_terms_blasted_total Terms lowered to CNF.
# TYPE stackd_solver_terms_blasted_total counter
stackd_solver_terms_blasted_total 8
# HELP stackd_solver_blast_passes_total Queries that lowered at least one new term.
# TYPE stackd_solver_blast_passes_total counter
stackd_solver_blast_passes_total 9
# HELP stackd_solver_learnts_reused_total Learned clauses retained across queries.
# TYPE stackd_solver_learnts_reused_total counter
stackd_solver_learnts_reused_total 10
# HELP stackd_solver_builder_cache_hits_total Term constructions answered by hash-consing.
# TYPE stackd_solver_builder_cache_hits_total counter
stackd_solver_builder_cache_hits_total 11
# HELP stackd_solver_learnts_dropped_total Learned clauses discarded by reductions and budgets.
# TYPE stackd_solver_learnts_dropped_total counter
stackd_solver_learnts_dropped_total 12
# HELP stackd_solver_arena_bytes_reused_total Term-arena bytes served from recycled slabs.
# TYPE stackd_solver_arena_bytes_reused_total counter
stackd_solver_arena_bytes_reused_total 13
# HELP stackd_solver_promoted_allocas_total Allocas promoted to SSA values (WithSSA).
# TYPE stackd_solver_promoted_allocas_total counter
stackd_solver_promoted_allocas_total 14
# HELP stackd_solver_eliminated_stores_total Stores removed by SSA passes (WithSSA).
# TYPE stackd_solver_eliminated_stores_total counter
stackd_solver_eliminated_stores_total 15
# HELP stackd_solver_gvn_hits_total Values merged by value numbering (WithSSA).
# TYPE stackd_solver_gvn_hits_total counter
stackd_solver_gvn_hits_total 16
# HELP stackd_solver_sccp_folded_values_total Values SCCP transmuted to constants (WithSSA).
# TYPE stackd_solver_sccp_folded_values_total counter
stackd_solver_sccp_folded_values_total 17
# HELP stackd_solver_sccp_folded_branches_total Branch conditions SCCP proved constant (WithSSA).
# TYPE stackd_solver_sccp_folded_branches_total counter
stackd_solver_sccp_folded_branches_total 18
# HELP stackd_solver_sccp_unreachable_blocks_total Blocks SCCP found unreachable (WithSSA).
# TYPE stackd_solver_sccp_unreachable_blocks_total counter
stackd_solver_sccp_unreachable_blocks_total 19
# HELP stackd_solver_cross_block_gvn_hits_total Values merged into a dominating block's representative (WithSSA).
# TYPE stackd_solver_cross_block_gvn_hits_total counter
stackd_solver_cross_block_gvn_hits_total 20
# HELP stackd_solver_hoisted_ub_terms_total UB-carrying instructions hoisted out of loop headers (WithSSA).
# TYPE stackd_solver_hoisted_ub_terms_total counter
stackd_solver_hoisted_ub_terms_total 21
# HELP stackd_solver_dom_ordered_skips_total Elimination queries skipped by the dominator-ordered walk (WithSSA).
# TYPE stackd_solver_dom_ordered_skips_total counter
stackd_solver_dom_ordered_skips_total 22
# HELP stackd_solver_ssa_sharpened_total Functions where SSA passes sharpened beyond the rewrite layer (WithSSA).
# TYPE stackd_solver_ssa_sharpened_total counter
stackd_solver_ssa_sharpened_total 23
# HELP stackd_result_cache_result_hits_total Sources answered whole from the result cache.
# TYPE stackd_result_cache_result_hits_total counter
stackd_result_cache_result_hits_total 24
# HELP stackd_result_cache_result_misses_total Sources analyzed for real (result-cache misses).
# TYPE stackd_result_cache_result_misses_total counter
stackd_result_cache_result_misses_total 25
# HELP stackd_solver_witness_hits_total Queries answered Sat by a stored satisfying assignment, without search.
# TYPE stackd_solver_witness_hits_total counter
stackd_solver_witness_hits_total 26
# HELP stackd_solver_file_panics_total Files whose analysis panicked and ended in an error.
# TYPE stackd_solver_file_panics_total counter
stackd_solver_file_panics_total 27
`
	if got := out[i:]; got != wantProm {
		t.Errorf("prometheus solver block changed:\n--- got\n%s--- want\n%s", got, wantProm)
	}
}
