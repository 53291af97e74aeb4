// Package core implements PMem-OE, the paper's proposed parameter-server
// engine (Secs. IV and V): a DRAM hash index whose entries live either in a
// DRAM cache or in a PMem arena, a pipelined cache-maintenance path that
// keeps LRU bookkeeping and PMem traffic off the request critical path
// (Algorithm 1), and a batch-aware checkpoint co-designed with cache
// replacement (Algorithm 2).
package core

import (
	"openembedding/internal/cache"
	"openembedding/internal/pmem"
)

// noSlot marks an entry with no persisted PMem record yet.
const noSlot = pmem.NoSlot

// entry is the hot form of an embedding entry: a key whose entry is in the
// DRAM cache (or has just left it with its write-back still queued).
//
// The paper's index stores a tagged pointer whose lowest bit says whether
// the target is in DRAM or PMem. Here that word is literal: each shard's
// index (index.go) holds one slot per key whose tagged word names either
// the key's PMem slot — the cold form, which is the whole entry of a key
// that is not cached, and no heap object — or, with the DRAM bit set, the
// number of its hot entry, this struct. A hot entry exists only while its
// key is cached; eviction folds it back into its slot (foldLocked) and
// returns it to the shard's free list, and promotion takes one from there.
// Within the hot form, a non-nil buf means the entry is cached in DRAM; a
// nil buf means it was evicted in the maintenance round now running and its
// write-back is queued (wbPending), which is the one case a hot entry
// outlives its cache residency: until the commit installs its new slot.
type entry struct {
	key uint64

	// version is the ID of the last batch that accessed the entry
	// (Alg. 1 line 10, Alg. 2 lines 16/20). LRU order and version order
	// coincide, which is what lets checkpoint completion be detected from
	// the LRU tail.
	version int64

	// dataVersion is the ID of the batch whose update the DRAM buffer
	// reflects (the last push, or the creation batch for a fresh entry).
	// PMem records are stamped with dataVersion, not the access version:
	// when the cache is smaller than a batch's working set, an entry can be
	// evicted in the same batch that pulled it, and stamping the access
	// version would then label pre-update data with a post-update batch ID
	// and break recovery. dataVersion <= version always holds.
	dataVersion int64

	// buf holds weights followed by optimizer state while cached in DRAM;
	// nil once the entry has been evicted (see the type comment).
	buf []float32

	// slot is the PMem slot of the newest persisted record, or noSlot.
	slot uint32

	// num is the entry's number in its shard's hotSet, the name a hot slot
	// word carries, and sid (below) its shard's; both are fixed when the
	// entry is made. (The fields are placed where they pad nothing.)
	num uint32

	// persistedVersion is the data version of the record at slot
	// (meaningless while slot == noSlot). The space manager needs it to
	// decide whether a superseded record is still covered by a checkpoint.
	persistedVersion int64

	// dirty reports that buf differs from the persisted record (or that no
	// record exists yet).
	dirty bool

	// ckptPending marks an entry counted by the active checkpoint's
	// activation scan and not yet persisted. Exactly these entries
	// decrement the completion counter when flushed: an entry *created*
	// after activation can satisfy the same dirty/dataVersion predicate
	// (its data version is its birth batch minus one) without having been
	// counted, and decrementing for it would complete the checkpoint
	// early, losing counted state.
	ckptPending bool

	// live reports that a key uses the entry, from take to release. An
	// access record that points at a hot entry is the key's entry only while
	// live is set and key still matches: between the pull and its round the
	// entry may have been evicted, folded back and reused.
	live bool

	// wbPending marks an entry whose flush a maintenance round has decided
	// and queued on its shard's write-back list but not yet committed
	// (maintain.go). Until the commit, slot and persistedVersion still name
	// the superseded record, and the queued record owns the row — which is
	// buf, or, if the entry was evicted since, no longer reachable from the
	// entry at all. Never set while the shard lock is released.
	wbPending bool

	// node links the entry into the LRU list while cached.
	node cache.Node[*entry]

	// snapEpoch/snapRow locate this entry's row in its shard's serve
	// snapshot (serve.go): valid only while snapEpoch matches the published
	// snapshot's epoch. Written by the rebuild under the exclusive shard
	// lock; read by push under the entry's stripe to mark the row dirty.
	snapEpoch uint64
	snapRow   int32

	sid int32

	// Hot entries sit side by side in their hotSet chunk: the pad makes each
	// exactly two cache lines, so none straddles a third.
	_ [8]byte
}

// inDRAM reports whether the entry currently has a DRAM copy.
func (e *entry) inDRAM() bool { return e.buf != nil }

// weights returns the weight portion of the DRAM buffer.
func (e *entry) weights(dim int) []float32 { return e.buf[:dim] }

// state returns the optimizer-state portion of the DRAM buffer.
func (e *entry) state(dim int) []float32 { return e.buf[dim:] }
