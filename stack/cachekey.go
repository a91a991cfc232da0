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
// the codec rehydrates name-dependent report positions on the way out.
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

	"repro/internal/cc"
	"repro/internal/core"
	"repro/internal/corpus"
	"repro/stack/cache"
)

// entrySchemaVersion versions the JSON payload encoding of cached
// entries. It is part of the cache key, so a codec change cleanly
// misses every entry written by older code — in the memory tier as
// well as on disk (the disk tier additionally versions its container
// format; see cache.DiskSchemaVersion).
const entrySchemaVersion = 1

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

// cacheKeyOf derives the content address for one source under the
// given options.
func cacheKeyOf(o core.Options, src string) cache.Key {
	return cache.KeyOf(
		[]byte(fmt.Sprintf("stack/result/v%d", entrySchemaVersion)),
		optionsFingerprint(o),
		[]byte(src),
	)
}

// cacheEntry is the JSON payload stored per key: the analyzed file's
// name at store time (for position rehydration), the program-shape
// stats a hit replays, and the full reports.
type cacheEntry struct {
	Name      string        `json:"name"`
	Functions int           `json:"functions"`
	Blocks    int           `json:"blocks"`
	Reports   []cacheReport `json:"reports,omitempty"`
}

type cachePos struct {
	File string `json:"file,omitempty"`
	Line int    `json:"line,omitempty"`
	Col  int    `json:"col,omitempty"`
}

type cacheUBRef struct {
	Kind int      `json:"kind"`
	Pos  cachePos `json:"pos"`
}

type cacheReport struct {
	Func       string       `json:"func"`
	Algo       int          `json:"algo"`
	Pos        cachePos     `json:"pos"`
	Simplified string       `json:"simplified,omitempty"`
	UBConds    []cacheUBRef `json:"ubConds,omitempty"`
	Origin     string       `json:"origin,omitempty"`
}

func posOf(p cc.Pos) cachePos  { return cachePos{File: p.File, Line: p.Line, Col: p.Col} }
func (p cachePos) pos() cc.Pos { return cc.Pos{File: p.File, Line: p.Line, Col: p.Col} }

func encodeEntry(name string, cf corpus.CachedFile) ([]byte, error) {
	e := cacheEntry{Name: name, Functions: cf.Functions, Blocks: cf.Blocks}
	for _, r := range cf.Reports {
		cr := cacheReport{
			Func:       r.Func,
			Algo:       int(r.Algo),
			Pos:        posOf(r.Pos),
			Simplified: r.Simplified,
			Origin:     r.Origin,
		}
		for _, u := range r.UBConds {
			cr.UBConds = append(cr.UBConds, cacheUBRef{Kind: int(u.Kind), Pos: posOf(u.Pos)})
		}
		e.Reports = append(e.Reports, cr)
	}
	return json.Marshal(e)
}

// decodeEntry rebuilds a CachedFile, rewriting every position that
// named the stored file to the requesting name. Positions with other
// file names (or none) pass through untouched, so the rewrite is
// exactly the inverse of what analyzing the same bytes under the new
// name would have produced.
func decodeEntry(raw []byte, name string) (corpus.CachedFile, bool) {
	var e cacheEntry
	if err := json.Unmarshal(raw, &e); err != nil {
		return corpus.CachedFile{}, false
	}
	rename := func(p cachePos) cc.Pos {
		if p.File == e.Name {
			p.File = name
		}
		return p.pos()
	}
	cf := corpus.CachedFile{Functions: e.Functions, Blocks: e.Blocks}
	for _, cr := range e.Reports {
		r := &core.Report{
			Func:       cr.Func,
			Algo:       core.Algo(cr.Algo),
			Pos:        rename(cr.Pos),
			Simplified: cr.Simplified,
			Origin:     cr.Origin,
		}
		for _, u := range cr.UBConds {
			r.UBConds = append(r.UBConds, core.UBRef{Kind: core.UBKind(u.Kind), Pos: rename(u.Pos)})
		}
		cf.Reports = append(cf.Reports, r)
	}
	return cf, true
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

func (rc *resultCache) Lookup(name, src string) (corpus.CachedFile, bool) {
	raw, ok := rc.c.Get(rc.key(src))
	if !ok {
		return corpus.CachedFile{}, false
	}
	return decodeEntry(raw, name)
}

func (rc *resultCache) Store(name, src string, cf corpus.CachedFile) {
	raw, err := encodeEntry(name, cf)
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
