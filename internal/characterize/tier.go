package characterize

import (
	"sync/atomic"
	"time"

	"hetsched/internal/energy"
)

// Source reports which tier satisfied a characterization request.
type Source int

// Tier sources, ordered warm to cold.
const (
	// SourceMemory served from the in-memory LRU.
	SourceMemory Source = iota
	// SourceCoalesced shared another in-flight computation's result.
	SourceCoalesced
	// SourceDisk loaded a valid entry from the persistent disk cache.
	SourceDisk
	// SourceComputed ran the full characterization pipeline.
	SourceComputed
)

// String names the source for wire counters and logs.
func (s Source) String() string {
	switch s {
	case SourceMemory:
		return "memory"
	case SourceCoalesced:
		return "coalesced"
	case SourceDisk:
		return "disk"
	case SourceComputed:
		return "computed"
	}
	return "unknown"
}

// Tier is the daemon's three-level characterization path:
//
//	memory LRU (+ singleflight)  →  disk cache  →  stream engine
//
// Every lookup is keyed by the same content hash the disk cache uses
// (CacheKey), so the tiers agree on identity by construction. The memory
// tier dedupes repeated and concurrent work within the process; the disk
// tier dedupes across processes and restarts; the compute tier is
// CharacterizeWithOptions with the tier's options.
//
// The zero value is unusable; build with NewTier. A Tier with a nil
// MemCache still works (disk → compute), as does one with dir "" (memory
// → compute).
type Tier struct {
	mem  *MemCache
	dir  string // "" disables the disk tier
	em   *energy.Model
	opts Options

	// computed counts full characterization runs the tier performed —
	// the denominator of coalescing effectiveness (requests vs. unique
	// characterizations) that hetschedbench and the reduction test read.
	computed atomic.Uint64
	disk     atomic.Uint64
	requests atomic.Uint64
}

// NewTier builds the serving-path characterization tier. memEntries and
// ttl size the warm memory tier (memEntries < 1 disables it); dir is the
// persistent disk cache directory ("" disables it); em and opts flow to
// CacheKey and the compute path.
func NewTier(memEntries int, ttl time.Duration, dir string, em *energy.Model, opts Options) *Tier {
	return &Tier{
		mem:  NewMemCache(memEntries, ttl),
		dir:  dir,
		em:   em,
		opts: opts,
	}
}

// Characterize returns the DB for variants, consulting memory, then disk,
// then computing — and reports which tier satisfied the call. Concurrent
// calls for the same content key share one computation via the memory
// tier's singleflight layer (when the memory tier is enabled).
func (t *Tier) Characterize(variants []Variant) (*DB, Source, error) {
	t.requests.Add(1)
	key, err := CacheKey(variants, t.em, t.opts)
	if err != nil {
		return nil, SourceComputed, err
	}
	// fromDisk distinguishes a disk hit from a true compute when the
	// memory tier reports OutcomeComputed: both run inside the flight.
	fromDisk := false
	db, outcome, err := t.mem.GetOrCompute(key, func() (*DB, error) {
		if t.dir != "" {
			if db, ok := LoadCached(t.dir, key); ok && validCached(db, variants) {
				fromDisk = true
				return db, nil
			}
		}
		db, err := CharacterizeWithOptions(variants, t.em, t.opts)
		if err != nil {
			return nil, err
		}
		if t.dir != "" {
			// Best-effort: the disk tier is an optimization, not a
			// dependency (same contract as CharacterizeCached).
			_ = SaveCached(t.dir, key, db)
		}
		return db, nil
	})
	if err != nil {
		return nil, SourceComputed, err
	}
	switch outcome {
	case OutcomeHit:
		return db, SourceMemory, nil
	case OutcomeCoalesced:
		return db, SourceCoalesced, nil
	}
	if fromDisk {
		t.disk.Add(1)
		return db, SourceDisk, nil
	}
	t.computed.Add(1)
	return db, SourceComputed, nil
}

// Key exposes the tier's content key for a variant set — the coalescing
// identity batch handlers and tests reason about.
func (t *Tier) Key(variants []Variant) (string, error) {
	return CacheKey(variants, t.em, t.opts)
}

// Waiters reports how many callers are currently blocked on an in-flight
// computation for the given key (0 when the memory tier is disabled).
func (t *Tier) Waiters(key string) int { return t.mem.Waiters(key) }

// TierStats is the /metrics and /healthz snapshot of the full path.
type TierStats struct {
	// Requests counts Characterize calls; Computed counts the full
	// pipeline runs among them; DiskHits the disk-cache loads. Memory-
	// tier hits and coalesced waits live in Mem. Requests − Computed −
	// DiskHits − Mem.Hits − Mem.Coalesced == 0 for error-free traffic.
	Requests uint64   `json:"requests"`
	Computed uint64   `json:"computed"`
	DiskHits uint64   `json:"disk_hits"`
	Mem      MemStats `json:"memory"`
}

// Stats snapshots the tier's counters. Safe for concurrent use.
func (t *Tier) Stats() TierStats {
	return TierStats{
		Requests: t.requests.Load(),
		Computed: t.computed.Load(),
		DiskHits: t.disk.Load(),
		Mem:      t.mem.Stats(),
	}
}
