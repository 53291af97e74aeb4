package core

import (
	"math"
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
// Each shard publishes a hot-set snapshot — a cache.RowView of rows copied
// out of the DRAM cache — through an atomic pointer. A serving thread pins
// the published snapshot (pinSnap), probes the view, checks the row's dirty
// bit and reads the row without touching the shard's reader/writer lock or
// its push stripes, then releases the pin. A slab is never written while it
// is published or pinned, so a snapshot read can never tear; the dirty bits
// only bound staleness, not integrity.
//
// Training stays the writer of record: pushes mark the served row dirty
// under the stripe they already hold, and the maintenance round that
// follows every batch rebuilds the snapshot under the exclusive shard lock
// it already holds — incrementally (re-copying only dirty rows, into the
// slab of the snapshot the last publish retired when no reader still pins
// it, and otherwise into an older retired slab: the shard's slabs take
// turns) while the hot set is stable, or
// fully (re-walking the LRU) after any membership change (promotion,
// eviction, first touch, scrub heal). Because rebuilds run under the
// exclusive lock, no push or serve fallback can observe a half-built
// snapshot.
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

// shardSnap is one shard's hot-set snapshot: the row view (embedded by
// value, so a hit costs one pointer load) plus what only the engine needs.
// The view's index and key list and ents never change once built; the row
// slab, dirty and dirtyCount change under two rules. While the snapshot is
// published, pushes mark dirty under their stripe and nothing writes the
// slab. Once a publish has retired it, it is the shard's spare (and later,
// perhaps, its parked snapshot): its bitmap is frozen, and an incremental
// rebuild may rewrite its slab and clear its bitmap — only after it has read
// pins == 0.
type shardSnap struct {
	cache.RowView
	epoch uint64
	// ents holds the entry behind each row. Only the rebuild path (which
	// runs under the exclusive shard lock) dereferences it; serving threads
	// never touch entries.
	ents []*entry
	// Bit r&31 of dirty[r>>5] marks row r stale: a push updated the entry
	// after this snapshot copied it. Serving falls back to the locked path
	// for dirty rows; the next rebuild re-copies them and publishes a clean
	// bitmap. A bit a row keeps a shard's marks in a few KB: no miss of
	// their own.
	dirty      []atomic.Uint32
	dirtyCount atomic.Int64 // rows marked
	// pins counts the readers between pinSnap and unpin: while it is not
	// zero the slab and the bitmap are read without a lock, and a rebuild
	// must leave both alone.
	pins atomic.Int32
}

func newDirtyBits(rows int) []atomic.Uint32 { return make([]atomic.Uint32, (rows+31)/32) }

// pinSnap pins the shard's published snapshot and returns it (nil before
// serving is enabled); the caller reads rows through cleanRow and then calls
// unpin. A row it resolved stays valid — never written — until that unpin,
// whatever is republished meanwhile.
//
// The handshake is load, pins+1, load again: only a pointer that is still the
// published one after the increment counts. Go's atomics are sequentially
// consistent, so a rebuild that reads pins == 0 on a retired snapshot — a
// read that follows the store that retired it — can be overtaken by no reader
// that goes on to use it: that reader's second load comes after its
// increment, hence after the retiring store, and sends it round again (the
// increment it leaves behind for a moment can only cost the rebuild a clone).
// The second load may also find the pointer published *again* — retired,
// rewritten and republished between the two loads. That is as good as a first
// sight of it: the slab was complete before the store that republished it,
// and the pin predates the load that saw it current, so it predates the pins
// read of any later rebuild.
//
// oevet:hotpath
func (s *shard) pinSnap() *shardSnap {
	for {
		sn := s.snap.Load()
		if sn == nil {
			return nil
		}
		sn.pins.Add(1)
		if s.snap.Load() == sn {
			return sn
		}
		sn.pins.Add(-1)
	}
}

// unpin releases what pinSnap returned.
//
// oevet:hotpath
func (sn *shardSnap) unpin() {
	if sn != nil {
		sn.pins.Add(-1)
	}
}

// cleanRow returns the row of k in a pinned snapshot — shared, read-only,
// valid until the pin is released — or nil when the snapshot cannot serve k
// (absent or dirty) and the locked path must.
//
// oevet:hotpath
func (sn *shardSnap) cleanRow(k uint64) []float32 {
	if sn != nil {
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
// The fast path — a clean snapshot hit — takes no lock at all: it pins the
// shard's published snapshot, probes the view, copies the row and releases
// the pin. Cold, dirty or unknown keys fall back to the locked engine path
// (ServeReadLocked). ServeRead never mutates training state: an unknown key
// is served from the deterministic initializer without creating an entry.
// A caller with many keys pins once for all of them (PinSnapshots).
//
// oevet:hotpath
func (e *Engine) ServeRead(k uint64, dst []float32) (ServeSource, error) {
	s := e.shards[e.shardIndex(k)]
	sn := s.pinSnap()
	row := sn.cleanRow(k)
	if row != nil {
		copy(dst, row)
	}
	sn.unpin()
	if row != nil {
		return ServeSnap, nil
	}
	return s.serveReadSlow(k, dst)
}

// ServeReadLocked is ServeRead for a key the snapshot is already known not
// to serve: the locked path alone, which answers the engine's current row
// whatever has been republished since the caller looked.
func (e *Engine) ServeReadLocked(k uint64, dst []float32) (ServeSource, error) {
	return e.shards[e.shardIndex(k)].serveReadSlow(k, dst)
}

// SnapPins is one gather's hold on the snapshot every shard had published
// when the gather began: PinSnapshots, any number of Rows, Unpin. The zero
// value is ready to use and reusable after Unpin, so it lives in the
// caller's pooled per-request state and a gather pays two atomic adds a
// shard, not a key. Not for concurrent use.
type SnapPins struct {
	eng   *Engine
	snaps []*shardSnap // by shard; nil entries before serving is enabled
}

// PinSnapshots pins the published snapshot of every shard of e into p, which
// must be unpinned.
//
// oevet:hotpath
func (e *Engine) PinSnapshots(p *SnapPins) {
	if cap(p.snaps) < len(e.shards) {
		p.snaps = make([]*shardSnap, len(e.shards)) //oevet:alloc-ok first use of a pooled SnapPins only: the capacity persists across gathers
	}
	p.eng, p.snaps = e, p.snaps[:len(e.shards)]
	for i, s := range e.shards {
		p.snaps[i] = s.pinSnap()
	}
}

// Rows resolves a block of keys against the pinned snapshots: rows[i] becomes
// the snapshot row of keys[i] (shared, read-only, valid until Unpin), or nil
// where only the locked path (Engine.ServeReadLocked) can answer. Nothing in
// the loop waits on the key before it, so the probes of a block miss the
// cache side by side, not one after another. len(rows) >= len(keys).
//
// oevet:hotpath
func (p *SnapPins) Rows(keys []uint64, rows [][]float32) {
	rows = rows[:len(keys)]
	e := p.eng
	for i, k := range keys {
		rows[i] = p.snaps[e.shardIndex(k)].cleanRow(k)
	}
}

// Unpin releases every pin p holds, and with them every row Rows returned;
// p keeps no reference to the engine or its slabs.
//
// oevet:hotpath
func (p *SnapPins) Unpin() {
	for i, sn := range p.snaps {
		sn.unpin()
		p.snaps[i] = nil
	}
	p.eng = nil
}

// SnapshotPins returns how many pins readers hold on the shards' published,
// spare and parked snapshots (tests and diagnostics): zero whenever no
// ServeRead or pinned gather is in flight, or one of them has leaked its pin.
func (e *Engine) SnapshotPins() int {
	n := 0
	for _, s := range e.shards {
		s.mu.RLock()
		for _, sn := range []*shardSnap{s.snap.Load(), s.spare, s.parked} {
			if sn != nil {
				n += int(sn.pins.Load())
			}
		}
		s.mu.RUnlock()
	}
	return n
}

// serveReadSlow is the locked fallback for keys the snapshot cannot serve.
// It holds the shard lock shared and the key's push stripe — the same order
// push itself uses — while it reads the slot's word and, for a DRAM-resident
// entry, copies the row, so the copy is the row before or after a full push
// run, never a torn mix, and a push promoting the key inline is seen whole
// or not at all. PMem-resident entries are read under the shared lock only
// (the record is immutable and its slot is stable while any reader holds
// mu; flushes that move records take mu exclusively) and then noted for
// hot-set promotion.
//
// oevet:coldpath snapshot miss/dirty fallback: the clean-key serve path never reaches it
func (s *shard) serveReadSlow(k uint64, dst []float32) (ServeSource, error) {
	e := s.eng
	dim := e.cfg.Dim
	s.mu.RLock()
	pos, w := s.index.find(k)
	if w == 0 {
		s.mu.RUnlock()
		e.cfg.Initializer(k, dst)
		return ServeInit, nil
	}
	stripe := &s.stripes[k%uint64(len(s.stripes))]
	stripe.Lock()
	if w = s.index.word(pos); w&tagHot != 0 {
		copy(dst, s.hot.at(w).weights(dim))
		stripe.Unlock()
		s.mu.RUnlock()
		e.dram.ChargeReadN(4*dim, 1)
		return ServeDRAM, nil
	}
	stripe.Unlock()
	err := e.arena.ReadRowVerified(wordRef(w), k, dst[:dim])
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
// incremental — same index, other slab: the view's keys and row order and
// the entry table are shared by every snapshot of the epoch and only dirty
// rows are re-copied. The slab they are copied into is the spare's — the
// snapshot the last publish retired — when no reader pins it, and the
// snapshot it replaces becomes the spare in turn, so a round costs what the
// batch dirtied. A spare still pinned costs a copy of the whole published
// slab, into the parked snapshot's slab when no reader pins that one (the
// pinned spare is parked in its place), and into a clone only when both are
// pinned or the epoch has retired no snapshot yet. A clone round parks the
// pinned spare when nothing is parked and the readers have not been seen to
// hold two retired slabs at once since the spare was last free. A membership
// change (promotion, eviction, first touch, scrub heal) sets snapStale and
// forces a full rebuild that walks the LRU in recency order and drops the
// retired snapshots.
//
// oevet:holds core.shard.mu 10
func (s *shard) rebuildSnapLocked() {
	e := s.eng
	if !e.serveOn.Load() {
		return
	}
	dim := e.cfg.Dim
	old := s.snap.Load()
	if !s.snapStale && old != nil {
		if old.dirtyCount.Load() == 0 {
			// Nothing moved; keep serving the published snapshot. The spare is
			// left as it is too: its frozen bitmap is still exactly the rows
			// in which its slab differs from the published one.
			return
		}
		start := e.obs.Now()
		spare, parked := s.spare, s.parked
		sn, recycle := spare, true
		switch {
		case spare.freeIn(old.epoch):
			s.heldLong = false
		case parked.freeIn(old.epoch):
			sn = parked
			sn.CopyRows(&old.RowView)
			for w := range sn.dirty {
				sn.dirty[w].Store(0)
			}
		default:
			sn, recycle = &shardSnap{
				RowView: old.CloneRows(),
				epoch:   old.epoch,
				ents:    old.ents,
				dirty:   newDirtyBits(len(old.ents)),
			}, false
		}
		// A spare's slab is the published one as of the publish that retired
		// it: it lacks the rows of that round (its own frozen marks) as well
		// as the rows of this one. A parked slab, copied whole, and a clone are
		// the published one, and their own bitmaps are empty.
		ok := true
		var blk [snapBlock]int32
		n := 0
	words:
		for w := range old.dirty {
			set := old.dirty[w].Load()
			if own := sn.dirty[w].Load(); own != 0 {
				set |= own
				sn.dirty[w].Store(0)
			}
			for ; set != 0; set &= set - 1 {
				blk[n] = int32(w<<5 + bits.TrailingZeros32(set))
				if n++; n == snapBlock {
					n = 0
					if ok = sn.recopy(blk[:], dim); !ok {
						break words
					}
				}
			}
		}
		if ok && sn.recopy(blk[:n], dim) {
			sn.dirtyCount.Store(0)
			s.snap.Store(sn)
			switch {
			case sn == spare, spare == nil:
				// The union walk, or the epoch's first round: nothing is parked.
			case sn == parked:
				s.parked = spare
			case parked != nil:
				// Both retired slabs pinned: the readers hold slabs across
				// republishes, and a slab parked for them would be held too.
				s.parked, s.heldLong = nil, true
			case !s.heldLong:
				s.parked = spare
			}
			s.spare = old
			if recycle {
				e.obs.SnapRecycled.Add(1)
			} else {
				e.obs.SnapCloned.Add(1)
			}
			e.obs.SnapRebuild.Observe(e.obs.Now() - start)
			return
		}
		// A dirty entry left DRAM between the push and this round without
		// tripping snapStale; re-walk from scratch.
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
	s.spare, s.parked, s.heldLong = nil, nil, false // their rows are in another epoch's order
	s.snap.Store(sn)
}

// freeIn reports whether sn is a retired snapshot of epoch that no reader
// pins: a slab a rebuild may rewrite.
func (sn *shardSnap) freeIn(epoch uint64) bool {
	return sn != nil && sn.epoch == epoch && sn.pins.Load() == 0
}

// snapBlock is how many dirty rows an incremental rebuild touches ahead of
// copying them, so that a block's entry and row misses are in flight
// together (DESIGN.md §18).
const snapBlock = 16

// snapSink receives what recopy's touch pass loads (see pmem's touchSink).
var snapSink atomic.Uint32

// recopy copies the current weights of the entries behind rows blk into sn's
// slab, and reports false when one of them has left DRAM. The rows a batch
// dirtied are scattered, so each costs a miss on its entry, on the entry's
// row and on the slab row: one pass loads the block's entries, the next one
// float of every source and destination row, and only then do the copies
// run, over lines already on their way.
func (sn *shardSnap) recopy(blk []int32, dim int) bool {
	for _, r := range blk {
		if ent := sn.ents[r]; ent == nil || !ent.inDRAM() {
			return false
		}
	}
	var sink uint32
	for _, r := range blk {
		sink += math.Float32bits(sn.ents[r].buf[0]) + math.Float32bits(sn.At(r)[0])
	}
	snapSink.Store(sink)
	for _, r := range blk {
		copy(sn.At(r), sn.ents[r].weights(dim))
	}
	return true
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
			var ent *entry
			switch pos, w := s.index.find(k); {
			case w == 0:
				continue
			case w&tagHot != 0:
				ent = s.hot.at(w)
			default:
				var err error
				if ent, err = s.promoteColdLocked(pos, nil); err != nil {
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
