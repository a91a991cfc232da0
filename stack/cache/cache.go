// Package cache is the content-addressed result cache behind
// stack.WithCache: a small, dependency-free store mapping fixed-size
// content addresses to opaque byte payloads. The paper's workload is
// whole-archive sweeps where consecutive runs see mostly byte-identical
// inputs, and the service fields repeat traffic from many clients — in
// both settings, re-running the solver stack on an unchanged file is
// pure waste, so the analyzer consults a Cache per source before the
// frontend ever runs.
//
// The package is deliberately generic: keys are 32-byte content
// addresses (the stack package derives them from the SHA-256 of the
// source bytes plus a canonical fingerprint of every result-affecting
// analyzer option) and values are opaque []byte payloads (the stack
// package's versioned diagnostic encoding). Nothing here knows what a
// diagnostic is, so the same store can back other content-addressed
// layers later (e.g. cross-file encoding dedup).
//
// Two implementations ship:
//
//   - NewMemory: a concurrency-safe in-memory LRU with a byte budget —
//     the hot tier, bounded and eviction-ordered;
//   - NewDisk: an on-disk tier of content-addressed files under a root
//     directory, written via atomic rename with a versioned, checksummed
//     entry header, so torn or corrupt entries read as misses and a
//     schema bump invalidates every old entry cleanly.
//
// NewTiered stacks them memory→disk: gets fall through and promote,
// puts populate every level.
//
// All implementations are safe for concurrent use by any number of
// goroutines; a Cache is shared across every worker of a sweep.
package cache

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
)

// Key is a 32-byte content address. Equal content (source bytes plus
// option fingerprint, for the analyzer's use) yields equal keys; no
// other relationship between inputs and keys is promised.
type Key [32]byte

// String renders the key as lowercase hex — the form the disk tier
// uses for file names.
func (k Key) String() string { return hex.EncodeToString(k[:]) }

// KeyOf derives a Key from an ordered sequence of byte segments. Each
// segment is length-prefixed before hashing, so distinct segmentations
// of the same concatenated bytes produce distinct keys ("ab","c" never
// collides with "a","bc").
func KeyOf(segments ...[]byte) Key {
	h := sha256.New()
	var n [8]byte
	for _, s := range segments {
		binary.LittleEndian.PutUint64(n[:], uint64(len(s)))
		h.Write(n[:])
		h.Write(s)
	}
	var k Key
	h.Sum(k[:0])
	return k
}

// Stats is a point-in-time snapshot of a cache's counters. All fields
// are cumulative since construction except Entries and Bytes, whose
// meaning is per-implementation: the memory tier reports resident
// entries and resident bytes (they fall on eviction), the disk tier
// reports entries and payload bytes written by this process (resident
// state belongs to the filesystem), and the tiered cache reports its
// own stack-level traffic plus the sums of its levels' resident
// quantities.
type Stats struct {
	// Hits and Misses count Get outcomes.
	Hits   int64 `json:"hits"`
	Misses int64 `json:"misses"`
	// Puts counts Put calls that stored (or overwrote) an entry.
	Puts int64 `json:"puts"`
	// Evictions counts entries dropped to keep the memory tier inside
	// its byte budget.
	Evictions int64 `json:"evictions"`
	// Errors counts entries rejected by the disk tier's integrity
	// checks (bad magic, version mismatch, truncation, checksum
	// failure) plus I/O failures; every one is served as a miss.
	Errors int64 `json:"errors"`
	// Entries and Bytes describe stored state; see the type comment for
	// the per-implementation meaning.
	Entries int64 `json:"entries"`
	Bytes   int64 `json:"bytes"`
}

// Cache is a content-addressed byte store. Implementations must be
// safe for concurrent use.
//
// Get returns the payload stored under k, or ok=false on a miss. The
// returned slice is owned by the cache: callers must not modify it.
// Put stores val under k, overwriting any existing entry; the cache
// takes no ownership of val (implementations copy or persist it before
// returning). A Cache is free to drop entries at any time — a Put
// followed by a Get of the same key may miss (eviction, byte budget,
// corruption) — so correctness can never depend on an entry's
// presence, only on its content being what was stored.
type Cache interface {
	Get(k Key) ([]byte, bool)
	Put(k Key, val []byte)
	Stats() Stats
}
