package core

import (
	"fmt"
	"slices"

	"openembedding/internal/psengine"
)

// This file is the engine side of live resharding (DESIGN.md §15): a
// migration source exports the entries whose ring positions are moving
// (ExportRange), the target adopts them with immediate durability
// (AdoptEntries), and after the ownership epoch flips the source drops the
// moved range — index, cache, and every durable record (DropRange). All
// three are cold administrative paths: they take shard locks exclusively
// and never touch the pull/push hot path.

// ExportRange returns up to max entries whose keys satisfy match, have key
// >= from, and carry dataVersion >= since — in ascending key order, with a
// more flag when the range continues past the page. from is the resume
// cursor, the next key to consider: 0 for the first page (0 is a key like
// any other), and one past the page's last key for the next. A page that
// ends at key math.MaxUint64 has no more. since narrows delta rounds to
// entries pushed at or after a batch; pass a very negative since for the
// full copy.
//
// The export is a read: it does not change entry state, and the copy is
// taken under each shard's exclusive lock so concurrent pushes cannot tear
// a row. Entries resident only in PMem are read back through the verified
// path, so a rotted record surfaces as an integrity error here instead of
// migrating corruption.
func (e *Engine) ExportRange(match func(key uint64) bool, since int64, from uint64, max int) ([]psengine.MigEntry, bool, error) {
	if e.closed.Load() {
		return nil, false, psengine.ErrClosed
	}
	if max <= 0 {
		return nil, false, fmt.Errorf("core: ExportRange: non-positive page size %d", max)
	}
	// Pass 1: collect candidate keys per shard (sorted within a shard, not
	// across shards), then sort globally so paging is a total order on keys.
	var cand []uint64
	for _, s := range e.shards {
		s.mu.Lock()
		for _, k := range s.scrubKeysLocked() {
			if k < from || !match(k) {
				continue
			}
			if v, ok := s.dataVersionLocked(k); ok && v >= since {
				cand = append(cand, k)
			}
		}
		s.mu.Unlock()
	}
	slices.Sort(cand)
	more := len(cand) > max
	if more {
		cand = cand[:max]
	}
	if len(cand) == 0 {
		return nil, false, nil
	}
	// Pass 2: copy the selected entries, one shard lock acquisition per
	// shard-contiguous run of the (key-sorted) page. An entry deleted between
	// the passes is skipped — the caller's next delta round re-converges.
	out := make([]psengine.MigEntry, 0, len(cand))
	for i := 0; i < len(cand); {
		s := e.shardFor(cand[i])
		j := i + 1
		for j < len(cand) && e.shardFor(cand[j]) == s {
			j++
		}
		s.mu.Lock()
		for _, k := range cand[i:j] {
			pos, w := s.index.find(k)
			if w == 0 {
				continue
			}
			data := make([]float32, e.cfg.EntryFloats())
			version := s.index.slots[pos].ver
			if w&tagHot != 0 {
				ent := s.hot.at(w)
				copy(data, ent.buf)
				version = ent.dataVersion
			} else if err := e.arena.ReadRowVerified(wordRef(w), k, data); err != nil {
				s.mu.Unlock()
				return nil, false, fmt.Errorf("core: export of key %d: %w", k, err)
			}
			out = append(out, psengine.MigEntry{Key: k, Version: version, Data: data})
		}
		s.mu.Unlock()
		i = j
	}
	return out, more, nil
}

// dataVersionLocked returns the data version of k's entry, and false when
// the shard does not hold k. Caller holds the shard lock.
func (s *shard) dataVersionLocked(k uint64) (int64, bool) {
	pos, w := s.index.find(k)
	switch {
	case w == 0:
		return 0, false
	case w&tagHot != 0:
		return s.hot.at(w).dataVersion, true
	}
	return s.index.slots[pos].ver, true
}

// AdoptEntries installs migrated entries into this engine, overwriting any
// existing state for the same keys, and flushes each adopted entry to PMem
// before returning. The immediate flush is what makes a replayed migration
// idempotent: adopted records are durable at their carried versions the
// moment the RPC completes, independent of whether the seal checkpoint that
// follows runs once or is skipped on a re-run.
//
// The caller (the node's adopt handler) fences its epoch afterwards, like
// after a rollback: clients bound to the pre-migration ownership view must
// rebind before their next fenced request.
//
// oevet:fence-need
func (e *Engine) AdoptEntries(entries []psengine.MigEntry) error {
	if e.closed.Load() {
		return psengine.ErrClosed
	}
	floats := e.cfg.EntryFloats()
	for _, me := range entries {
		if len(me.Data) != floats {
			return fmt.Errorf("core: adopt of key %d: %d floats, want %d", me.Key, len(me.Data), floats)
		}
	}
	for i := 0; i < len(entries); {
		s := e.shardFor(entries[i].Key)
		j := i + 1
		for j < len(entries) && e.shardFor(entries[j].Key) == s {
			j++
		}
		// One locked region per run; errors accumulate and break so the
		// shard still republishes a consistent snapshot before unlocking
		// (the maintain.go idiom — no early unlock inside the region).
		s.mu.Lock()
		var runErr error
		for _, me := range entries[i:j] {
			var ent *entry
			pos, w := s.index.find(me.Key)
			if w == 0 {
				if n := e.entries.Add(1); n > int64(e.cfg.Capacity) {
					e.entries.Add(-1)
					runErr = fmt.Errorf("%w: %d entries", psengine.ErrCapacity, n-1)
					break
				}
				ent = s.hot.take(me.Key, s.id)
				ent.version, ent.dataVersion, ent.slot, ent.dirty = me.Version, me.Version, noSlot, true
				s.index.insert(pos, me.Key, 0, hotWord(ent.num))
				s.scrubKeysStale = true
			} else if w&tagHot == 0 {
				// Made hot with no row: the adopted data is its row. A cold
				// entry's access version is not kept; its data version stands in.
				ent = s.hotLocked(pos)
				ent.version = ent.dataVersion
			} else if ent = s.hot.at(w); ent.ckptPending {
				// The active checkpoint counted this entry's pre-adopt state;
				// persist that state first so the checkpoint stays exact, then
				// overwrite.
				if runErr = s.flushLocked(ent); runErr != nil {
					break
				}
			}
			if !ent.inDRAM() {
				ent.buf = s.takeRow()
			}
			copy(ent.buf, me.Data)
			ent.dirty = true
			ent.dataVersion = me.Version
			if me.Version > ent.version {
				ent.version = me.Version
			}
			if ent.node.InList() {
				s.lru.MoveToFront(&ent.node)
			} else {
				s.lru.PushFront(&ent.node)
			}
			s.snapStale = true
			// Durable immediately (see the function comment): the flush stamps
			// the record with the carried data version and clears dirty.
			if runErr = s.flushLocked(ent); runErr != nil {
				break
			}
		}
		if runErr == nil {
			s.enforceCapacityLocked()
			runErr = s.commitLocked()
		}
		s.rebuildSnapLocked()
		s.mu.Unlock()
		if runErr != nil {
			return runErr
		}
		i = j
	}
	return nil
}

// DropRange removes every entry whose key satisfies match — from the index,
// the cache, and checkpoint accounting — and durably erases every arena
// record (live, retired, or stale) carrying a matching key, so a later
// recovery scan cannot resurrect moved keys on the old owner. Returns the
// number of index entries dropped.
//
// The caller fences its epoch afterwards: dropping keys regresses this
// node's served key set exactly like a rollback does.
//
// oevet:fence-need
func (e *Engine) DropRange(match func(key uint64) bool) (int, error) {
	if e.closed.Load() {
		return 0, psengine.ErrClosed
	}
	// Settle in-flight maintenance first: a maintainer flushing a matching
	// entry concurrently with the erase would write the record right back.
	e.WaitMaintenance()
	dropped := 0
	for _, s := range e.shards {
		s.mu.Lock()
		for _, k := range s.scrubKeysLocked() {
			if !match(k) {
				continue
			}
			pos, w := s.index.find(k)
			if w == 0 {
				continue
			}
			if w&tagHot != 0 {
				ent := s.hot.at(w)
				if ent.ckptPending {
					// The active checkpoint counted this entry; settle its
					// completion accounting — the data is leaving this node.
					e.noteFlushed(1)
				}
				if ent.node.InList() {
					s.lru.Remove(&ent.node)
				}
				s.hot.release(ent)
			}
			s.index.remove(pos)
			s.scrubKeysStale = true
			s.snapStale = true
			e.entries.Add(-1)
			dropped++
		}
		s.rebuildSnapLocked()
		s.mu.Unlock()
	}
	if _, err := e.arena.EraseMatching(match); err != nil {
		return dropped, fmt.Errorf("core: drop range: %w", err)
	}
	return dropped, nil
}
