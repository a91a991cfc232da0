package corpus

import "repro/internal/core"

// CachedFile is one source file's finished analysis as a result cache
// stores and replays it: everything a sweep needs to emit the file
// without running the frontend, IR construction, or the solver.
//
// Functions and Blocks are the program-shape quantities the checker
// would have added to its stats for this file; replaying them keeps a
// warm sweep's shape counters (and the Functions column of per-file
// results) byte-identical to a cold one. Solver-effort counters are
// deliberately absent: a cache hit does no solver work, and the stats
// are honest about it.
type CachedFile struct {
	Functions int
	Blocks    int
	Reports   []*core.Report
}

// ReplayHit folds one cache hit into st: the hit counter plus the
// program-shape counters the checker would have accumulated. Effort
// counters stay untouched — the hit did no solver work.
func (cf CachedFile) ReplayHit(st *core.Stats) {
	st.CacheResultHits++
	st.Functions += cf.Functions
	st.Blocks += cf.Blocks
}

// ResultCache answers whole per-file analyses by source content. The
// sweep consults it per file before the frontend runs; a hit skips
// every stage and the cached reports flow through the in-order emitter
// exactly like fresh ones, so ordering and byte-identity of the
// diagnostic stream are untouched.
//
// The cache is keyed by content, not by name: a hit may come from a
// file stored under another name, and CheckFile names the requesting
// file in the reports it returns. Implementations must be safe for
// concurrent use: one ResultCache serves every worker of a sweep.
// Lookup must treat any unreadable, truncated, or corrupt entry as a
// miss — never as an error, and never as a payload.
type ResultCache interface {
	Lookup(src string) (CachedFile, bool)
	Store(src string, cf CachedFile)
}
