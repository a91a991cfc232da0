package stack

// Content-addressed result-cache keys and the cached-entry codec.
//
// The cache key for one source is
//
//	SHA-256( schema tag ‖ options fingerprint ‖ source bytes )
//
// over length-prefixed segments (cache.KeyOf), so the three parts can
// never collide by concatenation. The file *name* is deliberately not
// part of the key: two files with identical bytes share one entry, and
// a stored report's positions do not name a file.
//
// The options fingerprint is a canonical rendering of every
// result-affecting field of core.Options — change any of them and the
// key changes, so a cache can never serve a result computed under
// different semantics. Fields that cannot affect results (the
// analyzer's Workers knob, the sink format) live outside
// core.Options and are excluded by construction. The fingerprint names
// each field verbatim; TestOptionsFingerprintCoversAllFields reflects
// over core.Options to prove no field is forgotten, and
// scripts/invariants.sh cross-checks the field list from the shell.

import (
	"encoding/json"
	"fmt"

	"repro/internal/core"
	"repro/internal/corpus"
	"repro/stack/cache"
)

// entrySchemaVersion versions cached entries: the JSON encoding of
// their payload, and what the checker reports for a given source. It
// is part of the cache key, so bumping it cleanly misses every entry
// written by older code — in the memory tier as well as on disk (the
// disk tier additionally versions its container format; see
// cache.DiskSchemaVersion). Bump it when the codec changes, and when
// a change to the checker changes what it reports for some source, so
// that no cache serves the reports of the older checker.
const entrySchemaVersion = 3

// optionsFingerprint renders every result-affecting checker option in
// a canonical, versioned form. Each core.Options and core.Flags field
// appears by its Go name: the reflection test and the shell invariant
// both key on that.
func optionsFingerprint(o core.Options) []byte {
	return []byte(fmt.Sprintf(
		"Timeout=%d;MaxConflictsPerQuery=%d;FilterOrigins=%t;MinUBSets=%t;"+
			"Inline=%t;ScratchSolve=%t;SSA=%t;"+
			"Flags.WrapV=%t;Flags.NoStrictOverflow=%t;Flags.NoDeleteNullPointerChecks=%t",
		int64(o.Timeout), o.MaxConflictsPerQuery, o.FilterOrigins, o.MinUBSets,
		o.Inline, o.ScratchSolve, o.SSA,
		o.Flags.WrapV, o.Flags.NoStrictOverflow, o.Flags.NoDeleteNullPointerChecks,
	))
}

// resultCache adapts a generic byte cache to the corpus.ResultCache
// the sweep pipeline consults: it owns key derivation (options
// fingerprint precomputed once) and the entry codec. A payload that
// fails to decode is a miss, never an error — same contract as a
// corrupt disk entry.
type resultCache struct {
	c  cache.Cache
	o  core.Options
	fp []byte
}

func newResultCache(c cache.Cache, o core.Options) *resultCache {
	return &resultCache{c: c, o: o, fp: optionsFingerprint(o)}
}

func (rc *resultCache) key(src string) cache.Key {
	return cache.KeyOf(
		[]byte(fmt.Sprintf("stack/result/v%d", entrySchemaVersion)),
		rc.fp,
		[]byte(src),
	)
}

func (rc *resultCache) Lookup(src string) (corpus.CachedFile, bool) {
	raw, ok := rc.c.Get(rc.key(src))
	if !ok {
		return corpus.CachedFile{}, false
	}
	var cf corpus.CachedFile
	if err := json.Unmarshal(raw, &cf); err != nil {
		return corpus.CachedFile{}, false
	}
	return cf, true
}

func (rc *resultCache) Store(src string, cf corpus.CachedFile) {
	raw, err := json.Marshal(cf)
	if err != nil {
		return // unencodable entries are simply not cached
	}
	rc.c.Put(rc.key(src), raw)
}

// CacheStats reports the underlying cache's traffic and residency
// counters, or the zero value when no cache is configured. This is the
// service's /metrics and ?stats=1 source of truth.
func (a *Analyzer) CacheStats() cache.Stats {
	if a.cache == nil {
		return cache.Stats{}
	}
	return a.cache.c.Stats()
}
