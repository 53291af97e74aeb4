package serve

import (
	"sort"
	"sync"
	"sync/atomic"

	"openembedding/internal/cache"
	"openembedding/internal/obs"
)

// StaleTier is the last line of graceful degradation (DESIGN.md §16): a
// bounded cache of previously-served embedding rows that keeps bag reads
// answering — flagged stale — when a key's owner AND its replicas are all
// suspected, partitioned or shedding. Staleness follows the one rule of
// DESIGN.md §14: a row is as old as the refresh pass that published it; a
// key never refreshed contributes the zero vector, and callers see the
// degradation (the result is marked stale) instead of an error.
//
// The tier is fed from two directions: Track records the hot key set as
// requests flow through the fan-out client, and Publish installs the rows a
// refresh pass re-read for the tracked keys from healthy owners — the whole
// pass as one immutable view, so a degraded read beside a refresh sees a
// complete row of one pass or the other. Both sides are bounded by the
// configured capacity, so a scan workload cannot turn the fallback tier
// into an unbounded cache.
//
// Safe for concurrent use; a nil *StaleTier disables every method.
type StaleTier struct {
	mu      sync.Mutex // guards tracked
	cap     int
	tracked map[uint64]struct{}
	view    atomic.Pointer[cache.RowView] // nil until the first Publish

	fallbacks *obs.Counter // serve_stale_fallbacks: degraded reads answered
	staleHits *obs.Counter // serve_stale_hits: rows served from the tier
	staleMiss *obs.Counter // serve_stale_miss: tracked-but-unrefreshed keys
}

// DefaultStaleCapacity bounds the tier when NewStaleTier is given a
// non-positive capacity.
const DefaultStaleCapacity = 1 << 16

// NewStaleTier returns an empty tier bounded to capacity keys
// (DefaultStaleCapacity when capacity <= 0).
func NewStaleTier(capacity int) *StaleTier {
	if capacity <= 0 {
		capacity = DefaultStaleCapacity
	}
	return &StaleTier{cap: capacity, tracked: make(map[uint64]struct{})}
}

// SetObs registers the tier's counters on reg.
func (t *StaleTier) SetObs(reg *obs.Registry) {
	if t == nil || reg == nil {
		return
	}
	t.mu.Lock()
	t.fallbacks = reg.Counter("serve_stale_fallbacks")
	t.staleHits = reg.Counter("serve_stale_hits")
	t.staleMiss = reg.Counter("serve_stale_miss")
	t.mu.Unlock()
}

// Track records keys as members of the hot set a refresh pass should
// snapshot. Keys beyond the capacity bound are dropped (the tier protects
// the hottest working set, not the whole table).
func (t *StaleTier) Track(keys []uint64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	for _, k := range keys {
		if len(t.tracked) >= t.cap {
			break
		}
		t.tracked[k] = struct{}{}
	}
	t.mu.Unlock()
}

// TrackedKeys returns the tracked hot set in ascending key order — a
// deterministic refresh order, so a seeded soak's refresh traffic replays
// identically.
func (t *StaleTier) TrackedKeys() []uint64 {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	keys := make([]uint64, 0, len(t.tracked))
	for k := range t.tracked {
		keys = append(keys, k)
	}
	t.mu.Unlock()
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	return keys
}

// Publish replaces the tier's rows with one refresh pass: row i of rows
// (row-major, len(keys)*dim floats, copied) is the row of keys[i]. Keys
// beyond the capacity bound are dropped.
func (t *StaleTier) Publish(dim int, keys []uint64, rows []float32) error {
	if t == nil {
		return nil
	}
	empty := cache.NewRowView(dim, 0)
	v, err := empty.Merge(keys, rows, t.cap)
	if err != nil {
		return err
	}
	t.view.Store(v)
	return nil
}

// Lookup returns the stale row for key, or nil when the key was never
// refreshed. The returned slice is shared — callers must not modify it.
// Hit/miss counters tally the degraded read mix.
func (t *StaleTier) Lookup(key uint64) []float32 {
	if t == nil {
		return nil
	}
	row := t.view.Load().Lookup(key)
	if row != nil {
		t.staleHits.Add(1)
	} else {
		t.staleMiss.Add(1)
	}
	return row
}

// Fallback tallies one degraded request answered from the tier.
func (t *StaleTier) Fallback() {
	if t == nil {
		return
	}
	t.fallbacks.Add(1)
}

// Len returns the number of refreshed rows held (tests and oectl).
func (t *StaleTier) Len() int {
	if t == nil {
		return 0
	}
	return t.view.Load().Len()
}
