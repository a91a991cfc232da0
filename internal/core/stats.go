package core

import (
	"reflect"
	"slices"
)

// Stats aggregates checker effort: the quantities of the paper's
// Figure 16 (queries, timeouts), the counters of the word-level rewrite
// and incremental-solving layers, the SSA pass counters, and the
// result-cache traffic.
//
// Stats is the one declaration of every counter. Each field carries its
// JSON key (json tag), its Prometheus metric name (prom tag), and that
// metric's help text (help tag); stack.Stats is an alias of this type,
// stackd's /metrics exposition loops over the tags, and Add sums the
// fields by reflection. Field order is the JSON key order and the
// exposition order.
//
// A class tag marks a counter that identity comparisons drop with
// Without: class "sched" depends on how the work is spread over
// workers, checkers or processes; class "effort" is solver effort,
// which differs between incremental and scratch solving although
// their output is identical. A counter without a class is the same
// for any worker count and for either solving mode. Adding a counter
// therefore takes one tagged integer field here, its class included,
// plus the line that increments it.
type Stats struct {
	Functions int   `json:"functions" prom:"stackd_solver_functions_total" help:"Functions analyzed."`
	Blocks    int   `json:"blocks" prom:"stackd_solver_blocks_total" help:"Basic blocks analyzed."`
	Queries   int64 `json:"queries" prom:"stackd_solver_queries_total" help:"Solver queries issued."`
	Timeouts  int64 `json:"timeouts" prom:"stackd_solver_timeouts_total" help:"Solver queries that hit the per-query timeout."`
	// RewriteHits counts term constructions answered by bv's word-level
	// rewrite rules; TermsCreated counts interned term nodes; FastPaths
	// counts solver queries decided from constants without CDCL search.
	// RewriteHits and CacheHits count the constructions the checker
	// asks the builder for: a ∆ term the checker has memoized for the
	// function is not asked for again, so it counts once.
	RewriteHits  int64 `json:"rewriteHits" prom:"stackd_solver_rewrite_hits_total" help:"Term constructions answered by word-level rewrites."`
	TermsCreated int64 `json:"termsCreated" prom:"stackd_solver_terms_created_total" help:"Interned term nodes created."`
	FastPaths    int64 `json:"fastPaths" prom:"stackd_solver_fast_paths_total" help:"Queries decided from constants without CDCL search."`
	// Incremental-session effort (see bv.Session): TermsBlasted counts
	// terms lowered to CNF, BlastPasses counts queries that lowered at
	// least one new term (so Queries/BlastPasses is the amortization
	// ratio), and LearntsReused sums the learned clauses already
	// available when each query started.
	TermsBlasted  int64 `json:"termsBlasted" prom:"stackd_solver_terms_blasted_total" help:"Terms lowered to CNF." class:"effort"`
	BlastPasses   int64 `json:"blastPasses" prom:"stackd_solver_blast_passes_total" help:"Queries that lowered at least one new term." class:"effort"`
	LearntsReused int64 `json:"learntsReused" prom:"stackd_solver_learnts_reused_total" help:"Learned clauses retained across queries." class:"effort"`
	// CacheHits counts term constructions answered by the builder's
	// hash-consing table (chain canonicalization exists to drive this
	// up); LearntsDropped counts learned clauses discarded by the SAT
	// core's mid-search database reductions;
	// ArenaBytesReused counts term-allocator bytes served from recycled
	// slabs instead of fresh heap allocations (zero until a function has
	// been checked on a warm arena).
	CacheHits        int64 `json:"cacheHits" prom:"stackd_solver_builder_cache_hits_total" help:"Term constructions answered by hash-consing."`
	LearntsDropped   int64 `json:"learntsDropped" prom:"stackd_solver_learnts_dropped_total" help:"Learned clauses discarded by reductions and budgets." class:"effort"`
	ArenaBytesReused int64 `json:"arenaBytesReused" prom:"stackd_solver_arena_bytes_reused_total" help:"Term-arena bytes served from recycled slabs." class:"sched"`
	// SSA pass effort (all zero unless Options.SSA): PromotedAllocas
	// counts address-taken variables mem2reg rewrote into SSA values,
	// EliminatedStores counts stores deleted by promotion and dead-store
	// elimination, SCCPFoldedValues counts instructions sparse
	// conditional constant propagation transmuted to constants,
	// SCCPFoldedBranches counts branch conditions it proved constant,
	// SCCPUnreachableBlocks counts blocks with no executable in-edge,
	// HoistedUBTerms counts UB-carrying instructions hoisted out of loop
	// headers.
	// GVNHits, CrossBlockGVNHits and DomOrderedSkips are always zero and
	// kept only so that the encodings stay additive. The first two
	// counted values an IR value-numbering pass merged in the same block
	// and into a dominating block; the bv builder's hash-consing now
	// makes every such merge (CacheHits). DomOrderedSkips counted
	// elimination queries skipped because a dominated block's
	// satisfiable verdict implied them, and those queries are now
	// answered from the session's stored assignment (WitnessHits).
	PromotedAllocas       int64 `json:"promotedAllocas,omitempty" prom:"stackd_solver_promoted_allocas_total" help:"Allocas promoted to SSA values (WithSSA)."`
	EliminatedStores      int64 `json:"eliminatedStores,omitempty" prom:"stackd_solver_eliminated_stores_total" help:"Stores removed by SSA passes (WithSSA)."`
	GVNHits               int64 `json:"gvnHits,omitempty" prom:"stackd_solver_gvn_hits_total" help:"Values merged by value numbering (WithSSA)."`
	SCCPFoldedValues      int64 `json:"sccpFoldedValues,omitempty" prom:"stackd_solver_sccp_folded_values_total" help:"Values SCCP transmuted to constants (WithSSA)."`
	SCCPFoldedBranches    int64 `json:"sccpFoldedBranches,omitempty" prom:"stackd_solver_sccp_folded_branches_total" help:"Branch conditions SCCP proved constant (WithSSA)."`
	SCCPUnreachableBlocks int64 `json:"sccpUnreachableBlocks,omitempty" prom:"stackd_solver_sccp_unreachable_blocks_total" help:"Blocks SCCP found unreachable (WithSSA)."`
	CrossBlockGVNHits     int64 `json:"crossBlockGvnHits,omitempty" prom:"stackd_solver_cross_block_gvn_hits_total" help:"Values merged into a dominating block's representative (WithSSA)."`
	HoistedUBTerms        int64 `json:"hoistedUbTerms,omitempty" prom:"stackd_solver_hoisted_ub_terms_total" help:"UB-carrying instructions hoisted out of loop headers (WithSSA)."`
	DomOrderedSkips       int64 `json:"domOrderedSkips,omitempty" prom:"stackd_solver_dom_ordered_skips_total" help:"Elimination queries skipped by the dominator-ordered walk (WithSSA)."`
	// SSASharpened counts functions where the pass stack proved a fact
	// beyond the encoding layer's rewrite rules (ir.PassStats.Sharpening).
	// When zero, checker output is provably byte-identical to the legacy
	// pipeline's, which the differential fuzz oracle enforces.
	SSASharpened int64 `json:"ssaSharpened,omitempty" prom:"stackd_solver_ssa_sharpened_total" help:"Functions where SSA passes sharpened beyond the rewrite layer (WithSSA)."`
	// Result-cache traffic (all zero without a configured cache; see
	// stack.WithCache): CacheResultHits counts sources answered whole
	// from the content-addressed result cache — frontend, IR, and solver
	// all skipped — and CacheResultMisses counts sources that were
	// analyzed for real (and then stored). The checker itself never
	// touches the cache; the sweep and batch layers consult it per source
	// and fold these counters in alongside the per-worker stats. On a hit
	// the program-shape counters (Functions, Blocks) are replayed from
	// the cached entry, while the effort counters (Queries, TermsBlasted,
	// ...) are not — a warm sweep really does no solver work, which is
	// the point.
	CacheResultHits   int64 `json:"cacheResultHits,omitempty" prom:"stackd_result_cache_result_hits_total" help:"Sources answered whole from the result cache."`
	CacheResultMisses int64 `json:"cacheResultMisses,omitempty" prom:"stackd_result_cache_result_misses_total" help:"Sources analyzed for real (result-cache misses)."`
	// WitnessHits counts solver queries answered Sat by a satisfying
	// assignment the function's session had stored from an earlier
	// query, without blasting or CDCL search (see bv.Session). Like
	// TermsBlasted it is effort: scratch solving keeps no assignments.
	WitnessHits int64 `json:"witnessHits,omitempty" prom:"stackd_solver_witness_hits_total" help:"Queries answered Sat by a stored satisfying assignment, without search." class:"effort"`
	// FilePanics counts files whose analysis panicked. The per-file
	// pipeline (corpus.Sweeper.CheckFile) recovers the panic into an
	// error naming the file, so one bad input cannot take down the
	// process or the other files of a sweep.
	FilePanics int64 `json:"filePanics,omitempty" prom:"stackd_solver_file_panics_total" help:"Files whose analysis panicked and ended in an error."`
}

// Add accumulates other into s, field by field. It is the reduction
// step for lock-free parallel checking: give each worker goroutine its
// own Checker, then merge the per-worker Stats with Add once the
// workers have finished (and likewise per request or per replica). It
// runs only at those merges, never per query, so reflection costs
// nothing that matters.
func (s *Stats) Add(other Stats) {
	dst, src := reflect.ValueOf(s).Elem(), reflect.ValueOf(other)
	for i := 0; i < dst.NumField(); i++ {
		f := dst.Field(i)
		f.SetInt(f.Int() + src.Field(i).Int())
	}
}

// Without returns s with every field of the given classes zeroed (see
// the class tag above).
func (s Stats) Without(classes ...string) Stats {
	v := reflect.ValueOf(&s).Elem()
	for i := 0; i < v.NumField(); i++ {
		if slices.Contains(classes, v.Type().Field(i).Tag.Get("class")) {
			v.Field(i).SetInt(0)
		}
	}
	return s
}
