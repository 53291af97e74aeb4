package core

import (
	"math/bits"
	"slices"
	"sync"
	"sync/atomic"

	"openembedding/internal/cache"
	"openembedding/internal/pmem"
)

// This file is the engine side of the online serving tier (DESIGN.md §14):
// an epoch-based, lock-free read path for clean hot entries.
//
// Each shard publishes an immutable hot-set snapshot — a cache.RowView of
// rows copied out of the DRAM cache — through an atomic pointer. Serving
// threads load the pointer, probe the view, check the row's dirty bit and
// copy the row without touching the shard's reader/writer lock or its push
// stripes. Rows are never written after publication, so a snapshot read
// can never tear; the dirty bits only bound staleness, not integrity.
//
// Training stays the writer of record: pushes mark the served row dirty
// under the stripe they already hold, and the maintenance round that
// follows every batch rebuilds the snapshot under the exclusive shard lock
// it already holds — incrementally (re-copying only dirty rows into a
// fresh row array) while the hot set is stable, or fully (re-walking the
// LRU) after any membership change (promotion, eviction, first touch,
// scrub heal). Because rebuilds run under the exclusive lock, no push or
// serve fallback can observe a half-built snapshot.
//
// Keys outside the snapshot (cold, dirty, or never trained) fall back to
// the locked engine path: shared shard lock, then the entry's push stripe
// for DRAM copies — exactly the order push uses — so a fallback read
// returns the pre- or post-push row bit-exactly, never a torn mix.

// ServeSource says which tier satisfied a ServeRead.
type ServeSource uint8

const (
	// ServeSnap: lock-free snapshot hit (the fast path).
	ServeSnap ServeSource = iota
	// ServeDRAM: fallback hit on the DRAM cache under the stripe.
	ServeDRAM
	// ServePMem: fallback verified read of the persisted record.
	ServePMem
	// ServeInit: key unknown to the engine; served from the deterministic
	// initializer without creating an entry (serving never mutates
	// training state).
	ServeInit
)

// shardSnap is one shard's published hot-set snapshot: the row view
// (embedded by value, so a hit costs one pointer load) plus what only the
// engine needs. The view and ents are immutable after publication; dirty
// and dirtyCount are the only mutable fields (written by pushes under
// their stripe).
type shardSnap struct {
	cache.RowView
	epoch uint64
	// ents holds the entry behind each row. Only the rebuild path (which
	// runs under the exclusive shard lock) dereferences it; serving threads
	// never touch entries.
	ents []*entry
	// Bit r&31 of dirty[r>>5] marks row r stale: a push updated the entry
	// after this snapshot copied it. Serving falls back to the locked path
	// for dirty rows; the next rebuild re-copies them under a fresh bitmap.
	// A bit a row keeps a shard's marks in a few KB: no miss of their own.
	dirty      []atomic.Uint32
	dirtyCount atomic.Int64 // rows marked
}

func newDirtyBits(rows int) []atomic.Uint32 { return make([]atomic.Uint32, (rows+31)/32) }

// snapRow returns the published row of k — shared and immutable, valid for
// as long as the caller holds it, whatever is republished meanwhile — or nil
// when the snapshot cannot serve k (absent or dirty) and the locked path
// must.
//
// oevet:hotpath
func (s *shard) snapRow(k uint64) []float32 {
	if sn := s.snap.Load(); sn != nil {
		if r, ok := sn.Row(k); ok && sn.dirty[r>>5].Load()&(1<<(r&31)) == 0 {
			return sn.At(r)
		}
	}
	return nil
}

// serveQCap bounds the per-shard queue of fallback-served keys awaiting
// promotion by RefreshServeSnapshots; excess keys are dropped (they will
// be re-noted by later reads if they stay hot).
const serveQCap = 1024

// serveQueue collects the keys the serve fallback path had to read from
// PMem, so a refresh can promote them into the hot set. Its mutex is a
// leaf: it is only taken with no other lock held.
type serveQueue struct {
	mu   sync.Mutex
	keys []uint64
}

func (q *serveQueue) note(k uint64) {
	q.mu.Lock()
	if len(q.keys) < serveQCap {
		q.keys = append(q.keys, k)
	}
	q.mu.Unlock()
}

func (q *serveQueue) drain() []uint64 {
	q.mu.Lock()
	keys := q.keys
	q.keys = nil
	q.mu.Unlock()
	return keys
}

// EnableServeSnapshots switches the engine into serving mode: every shard
// builds an initial hot-set snapshot now, and each maintenance round
// rebuilds its shard's snapshot before releasing the exclusive lock.
// Idempotent; safe to call before or during training.
func (e *Engine) EnableServeSnapshots() {
	if e.serveOn.Swap(true) {
		return
	}
	for _, s := range e.shards {
		s.mu.Lock()
		s.snapStale = true
		s.rebuildSnapLocked()
		s.mu.Unlock()
	}
}

// ServeSnapshotsEnabled reports whether serving mode is on.
func (e *Engine) ServeSnapshotsEnabled() bool { return e.serveOn.Load() }

// ServeRead copies the current weights of key k into dst (dim floats).
// The fast path — a clean snapshot hit — takes no lock at all: it loads
// the shard's snapshot pointer, probes the immutable view and copies the
// immutable row. Cold, dirty or unknown keys fall back to the locked
// engine path (serveReadSlow). ServeRead never mutates training state: an
// unknown key is served from the deterministic initializer without
// creating an entry.
//
// oevet:hotpath
func (e *Engine) ServeRead(k uint64, dst []float32) (ServeSource, error) {
	s := e.shards[e.shardIndex(k)]
	if row := s.snapRow(k); row != nil {
		copy(dst, row)
		return ServeSnap, nil
	}
	return s.serveReadSlow(k, dst)
}

// ServeSnapRows is the fast path of ServeRead for a block of keys at once:
// rows[i] becomes the published snapshot row of keys[i] (shared, read-only),
// or nil where only ServeRead's locked path can answer. Nothing in the loop
// waits on the key before it, so the probes of a block miss the cache side
// by side, not one after another. len(rows) >= len(keys).
//
// oevet:hotpath
func (e *Engine) ServeSnapRows(keys []uint64, rows [][]float32) {
	rows = rows[:len(keys)]
	for i, k := range keys {
		rows[i] = e.shards[e.shardIndex(k)].snapRow(k)
	}
}

// serveReadSlow is the locked fallback for keys the snapshot cannot serve.
// It holds the shard lock shared and, for DRAM-resident entries, the
// entry's push stripe — the same order push itself uses — so the copy is
// the row before or after a full push run, never a torn mix. PMem-resident
// entries are read under the shared lock only (the record is immutable and
// its slot is stable while any reader holds mu; flushes that move records
// take mu exclusively) and then noted for hot-set promotion.
//
// oevet:coldpath snapshot miss/dirty fallback: the clean-key serve path never reaches it
func (s *shard) serveReadSlow(k uint64, dst []float32) (ServeSource, error) {
	e := s.eng
	dim := e.cfg.Dim
	s.mu.RLock()
	ent := s.index[k]
	if ent == nil {
		s.mu.RUnlock()
		e.cfg.Initializer(k, dst)
		return ServeInit, nil
	}
	stripe := &s.stripes[k%uint64(len(s.stripes))]
	stripe.Lock()
	if ent.inDRAM() {
		copy(dst, ent.weights(dim))
		stripe.Unlock()
		s.mu.RUnlock()
		e.dram.ChargeReadN(4*dim, 1)
		return ServeDRAM, nil
	}
	stripe.Unlock()
	err := e.arena.ReadRowVerified(ent.slot, k, dst[:dim])
	s.mu.RUnlock()
	if err != nil {
		if pmem.IsIntegrity(err) {
			e.obs.CorruptServe.Add(1)
		}
		return ServePMem, err
	}
	s.serveQ.note(k)
	return ServePMem, nil
}

// markServeDirty records that a push updated ent after the current
// snapshot copied it. Caller holds the entry's stripe (and the shard lock
// shared), so the loaded snapshot cannot be swapped mid-call: rebuilds
// take the shard lock exclusively.
//
// oevet:hotpath
func (s *shard) markServeDirty(ent *entry) {
	sn := s.snap.Load()
	if sn == nil || ent.snapEpoch != sn.epoch {
		return
	}
	// A CAS loop, not atomic.Uint32.Or: go.mod is go 1.22. Rows of other
	// stripes share the word, so only the 0→1 edge of this bit counts.
	w, bit := &sn.dirty[ent.snapRow>>5], uint32(1)<<(ent.snapRow&31)
	for old := w.Load(); old&bit == 0; old = w.Load() {
		if w.CompareAndSwap(old, old|bit) {
			sn.dirtyCount.Add(1)
			return
		}
	}
}

// rebuildSnapLocked republishes this shard's snapshot. Caller holds the
// exclusive shard lock, so no push or fallback read runs concurrently.
//
// While the hot set is membership-stable (snapStale false) the rebuild is
// incremental — same index, fresh slab: the view's keys and row order and
// the entry table are shared with the previous snapshot and only dirty
// rows are re-copied into the cloned rows. A membership change (promotion,
// eviction, first touch, scrub heal) sets snapStale and forces a full
// rebuild that walks the LRU in recency order.
//
// oevet:holds core.shard.mu 10
func (s *shard) rebuildSnapLocked() {
	if !s.eng.serveOn.Load() {
		return
	}
	dim := s.eng.cfg.Dim
	old := s.snap.Load()
	if !s.snapStale && old != nil {
		if old.dirtyCount.Load() == 0 {
			return // nothing moved; keep serving the published snapshot
		}
		sn := &shardSnap{
			RowView: old.CloneRows(),
			epoch:   old.epoch,
			ents:    old.ents,
			dirty:   newDirtyBits(len(old.ents)),
		}
		ok := true
	words:
		for w := range old.dirty {
			for set := old.dirty[w].Load(); set != 0; set &= set - 1 {
				r := w<<5 + bits.TrailingZeros32(set)
				ent := old.ents[r]
				if ent == nil || !ent.inDRAM() {
					// The dirty entry left DRAM between the push and this
					// round without tripping snapStale; re-walk from scratch.
					ok = false
					break words
				}
				copy(sn.At(int32(r)), ent.weights(dim))
			}
		}
		if ok {
			s.snap.Store(sn)
			return
		}
	}
	// Full rebuild: the hot set is exactly the DRAM cache, walked MRU→LRU
	// (a deterministic order, unlike map iteration).
	n := s.lru.Len()
	s.snapEpoch++
	sn := &shardSnap{
		RowView: cache.NewRowView(dim, n),
		epoch:   s.snapEpoch,
		ents:    make([]*entry, 0, n),
		dirty:   newDirtyBits(n),
	}
	s.lru.Each(func(ent *entry) bool {
		sn.ents = append(sn.ents, ent)
		ent.snapEpoch = sn.epoch
		ent.snapRow = sn.Append(ent.key, ent.weights(dim))
		return true
	})
	s.snapStale = false
	s.snap.Store(sn)
}

// RefreshServeSnapshots folds serve-path observations back into the hot
// set: keys the fallback path served from PMem are promoted into the DRAM
// cache (and therefore the next snapshot), the cache budget is re-enforced
// and every shard's snapshot is rebuilt. Call it from a background cadence
// (serve.Handler does) or after a training quiesce; it takes each shard's
// exclusive lock in turn, like a maintenance round.
func (e *Engine) RefreshServeSnapshots() error {
	if !e.serveOn.Load() {
		return nil
	}
	batch := e.lastEnded.Load()
	var firstErr error
	for _, s := range e.shards {
		keys := s.serveQ.drain()
		slices.Sort(keys)
		keys = slices.Compact(keys)
		s.mu.Lock()
		for _, k := range keys {
			ent := s.index[k]
			if ent == nil {
				continue
			}
			if !ent.inDRAM() {
				if err := s.promoteLocked(ent, nil); err != nil {
					if firstErr == nil {
						firstErr = err
					}
					continue
				}
			}
			if ent.node.InList() {
				s.lru.MoveToFront(&ent.node)
			} else {
				ent.version = batch
				s.lru.PushFront(&ent.node)
				s.snapStale = true
			}
		}
		s.enforceCapacityLocked()
		if err := s.commitLocked(); err != nil && firstErr == nil {
			firstErr = err
		}
		s.rebuildSnapLocked()
		s.mu.Unlock()
	}
	return firstErr
}
