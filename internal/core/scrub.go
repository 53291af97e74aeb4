package core

import (
	"errors"
	"slices"

	"openembedding/internal/pmem"
	"openembedding/internal/psengine"
)

// This file is the self-healing integrity scrubber (DESIGN.md §11). The
// scrubber walks persisted records in deterministic (sorted-key) order,
// re-verifies each checksum, and heals what the media lost, trying the
// least destructive heal first:
//
//   - corrected: a single flipped bit (bit-rot's signature) is located by
//     CRC32C syndrome and undone in place — the record, its version, and
//     its checkpoint coverage come back bit-exact. Counted as repaired.
//   - repaired: the DRAM cache still holds the entry, so the record is
//     rewritten in place at the entry's current version.
//   - restored: no DRAM copy, but a retained record at or below the
//     completed checkpoint survives; the entry is rolled back onto it.
//   - fenced: nothing recoverable — the key is dropped and will be reborn
//     with its deterministic initializer on first touch.
//
// A DRAM rewrite is only transparent if it preserves checkpoint coverage:
// flushLocked rewrites at dataVersion, so when the lost record was the
// newest durable copy at or below some rollback target T (persistedVersion
// <= T < dataVersion, the same window reclaim retains records for), a
// later rollback to T would silently miss this key. Such heals are
// honest about it and count as restored. A surviving older record is no
// escape — it predates at least one applied push, so recovering to T
// through it diverges from the state checkpoint T actually captured.
//
// Restored and fenced entries regress node state: the caller of Scrub (the
// node) fences its epoch and lets the trainer run coordinated
// rollback+replay — the same machinery a crash uses, which is what keeps
// training exact. Scrubbing runs when asked (ps.Node.Scrub, the scrub RPC,
// oectl scrub), never in the background: a pass takes each shard's lock
// exclusively, and its cost and its heals belong to whoever asked.

// Scrub runs one full integrity pass over every persisted record and
// returns what it found and healed. It takes each shard's exclusive lock
// in turn (a repair path, not a hot path). If the report's Restored or
// Fenced counts are non-zero the caller must treat node state as rolled
// back: fence the epoch and replay, exactly as after a crash — including
// on the error return, whose partial report may already carry losses.
//
// oevet:fence-need
func (e *Engine) Scrub() (psengine.ScrubReport, error) {
	var rep psengine.ScrubReport
	if e.closed.Load() {
		return rep, psengine.ErrClosed
	}
	targets := e.rollbackTargets()
	for _, s := range e.shards {
		s.mu.Lock()
		for _, k := range s.scrubKeysLocked() {
			var err error
			switch pos, w := s.index.find(k); {
			case w == 0:
				continue
			case w&tagHot != 0:
				if ent := s.hot.at(w); ent.slot != noSlot {
					err = s.scrubEntryLocked(ent, targets, &rep)
				}
			default:
				err = s.scrubColdLocked(pos, &rep)
			}
			if err != nil {
				s.mu.Unlock()
				e.applyScrubObs(rep)
				return rep, err
			}
		}
		s.mu.Unlock()
	}
	e.applyScrubObs(rep)
	return rep, nil
}

// rollbackTargets snapshots every checkpoint a later recovery or rollback
// could land on: the two retained completed checkpoints, every queued
// request, and the last sealed batch (the newest batch a future request
// may still target) — mirroring reclaim's retention rule. It takes
// ckptMu.
func (e *Engine) rollbackTargets() []int64 {
	e.ckptMu.Lock()
	targets := append([]int64(nil), e.ckptQueue...)
	e.ckptMu.Unlock()
	if t := e.completedCkpt.Load(); t >= 0 {
		targets = append(targets, t)
	}
	if t := e.prevCompleted.Load(); t >= 0 {
		targets = append(targets, t)
	}
	if t := e.lastEnded.Load(); t >= 0 {
		targets = append(targets, t)
	}
	return targets
}

// coverageLost reports whether dropping the entry's persisted record in
// favor of a rewrite at dataVersion leaves some rollback target T without
// any durable copy of this key's state-at-T: the record was the newest
// copy at or below T (persistedVersion <= T) and its replacement lands
// beyond T (dataVersion > T). A clean entry rewrites at persistedVersion
// itself, reproducing identical coverage.
func coverageLost(ent *entry, targets []int64) bool {
	if !ent.dirty {
		return false
	}
	for _, t := range targets {
		if ent.persistedVersion <= t && ent.dataVersion > t {
			return true
		}
	}
	return false
}

// scrubEntryLocked verifies a hot entry's persisted record and heals it if
// the media lost it, trying the heal ladder in order (see the file
// comment). A hot entry scrubbed here is in DRAM (the scrub runs between
// maintenance rounds), so a lost record is repaired from the DRAM copy.
// targets is the caller's rollback-target snapshot. A restored heal
// discards state the caller must fence the epoch for. Caller holds the
// entry's shard lock exclusively.
//
// oevet:fence-need
// oevet:holds core.shard.mu 10
func (s *shard) scrubEntryLocked(ent *entry, targets []int64, rep *psengine.ScrubReport) error {
	if lost, err := s.recordLostLocked(ent.slot, ent.key, rep); !lost {
		return err
	}
	ent.slot = noSlot
	// The DRAM copy is intact: re-persist the entry's current state.
	// flushLocked also settles any pending-checkpoint accounting. The
	// rewrite lands at dataVersion — if that abandons a rollback target's
	// only durable copy of this key, the heal regresses recoverable state and
	// must be reported as a restore so the node fences its epoch (served
	// state is unchanged, but a later rollback would not be).
	lost := coverageLost(ent, targets)
	if err := s.flushLocked(ent); err != nil {
		return err
	}
	if lost {
		rep.Restored++
	} else {
		rep.Repaired++
	}
	return nil
}

// scrubColdLocked verifies the record of the cold entry at pos and heals it
// if the media lost it. With no DRAM copy, the heals left are a restore onto
// a retained older record and the fence. Caller holds the shard lock
// exclusively.
//
// oevet:fence-need
// oevet:holds core.shard.mu 10
func (s *shard) scrubColdLocked(pos int, rep *psengine.ScrubReport) error {
	e := s.eng
	sl := &s.index.slots[pos]
	if lost, err := s.recordLostLocked(wordRef(sl.word), sl.key, rep); !lost {
		return err
	}
	// The newest surviving record at or below the completed checkpoint is
	// the authoritative checkpoint state (the same newest-wins rule the
	// recovery scan applies); adopt it if the space manager still holds it.
	// (A cold entry is clean, so it owes the active checkpoint nothing.)
	ckpt := e.completedCkpt.Load()
	if rec, ok := e.arena.FindLatest(sl.key, ckpt); ok {
		if version, adopted := e.arena.AdoptRetired(rec.Slot); adopted {
			sl.word, sl.ver = coldWord(rec.Slot), version
			rep.Restored++
			return nil
		}
	}
	// Fence: no recoverable record for this key. Drop it — after replay it
	// is reborn from its deterministic initializer on first touch.
	s.index.remove(pos)
	s.scrubKeysStale = true
	s.snapStale = true
	e.entries.Add(-1)
	rep.Fenced++
	return nil
}

// recordLostLocked scans one persisted record (the first rungs of the heal
// ladder): it reports false when the record verifies or a single flipped bit
// was undone in place, and true when the record is lost — the bad slot has
// then left circulation and the caller heals the entry some other way. A
// check that fails for any reason but integrity is returned as an error.
// A lost record's state is gone from PMem, which the caller's heal may not
// restore.
//
// oevet:fence-need
// oevet:holds core.shard.mu 10
func (s *shard) recordLostLocked(slot uint32, key uint64, rep *psengine.ScrubReport) (bool, error) {
	e := s.eng
	rep.Scanned++
	err := e.arena.CheckRecord(slot, key)
	if err == nil || !pmem.IsIntegrity(err) {
		return false, err
	}
	rep.Corrupt++
	// Least destructive first: undo a single flipped bit in place. The
	// record comes back bit-exact — version and checkpoint coverage
	// included — so no other heal (which at best reconstructs some other
	// version) can beat it. Poisoned media has nothing readable to correct.
	if !errors.Is(err, pmem.ErrPoisoned) {
		if cerr := e.arena.CorrectRecord(slot, key); cerr == nil {
			rep.Repaired++
			return false, nil
		} else if errors.Is(cerr, pmem.ErrPoisoned) {
			err = cerr // the corrective rewrite itself hit poisoned media
		}
	}
	// The bad record leaves circulation: a poisoned slot is quarantined
	// (its media range refuses reads until rewritten), a rotted slot's
	// media is fine and returns to the free list.
	if errors.Is(err, pmem.ErrPoisoned) {
		e.arena.Quarantine(slot)
		rep.Quarantined++
	} else {
		e.arena.Free(slot)
	}
	return true, nil
}

// scrubKeysLocked returns this shard's keys in ascending order (the
// deterministic scrub and migration walk order), rebuilding the cached
// snapshot only when an index insert or delete invalidated it — a
// migration export pages through the shard one page per call, and an
// O(n log n) re-sort per page under the shard lock would dwarf the page
// it serves. Deletions observed through a stale snapshot
// are harmless (lookups find nothing and skip), but the cache is
// invalidated on them anyway so the slice cannot pin dropped keys forever.
// Caller holds the shard lock.
//
// oevet:holds core.shard.mu 10
func (s *shard) scrubKeysLocked() []uint64 {
	if s.scrubKeys == nil || s.scrubKeysStale {
		s.scrubKeys = s.index.keys(make([]uint64, 0, s.index.n))
		slices.Sort(s.scrubKeys)
		s.scrubKeysStale = false
	}
	return s.scrubKeys
}

// applyScrubObs folds one scrub report into the engine metric set.
func (e *Engine) applyScrubObs(rep psengine.ScrubReport) {
	if rep.Scanned == 0 {
		return
	}
	e.obs.ScrubScanned.Add(rep.Scanned)
	e.obs.ScrubCorrupt.Add(rep.Corrupt)
	e.obs.ScrubRepaired.Add(rep.Repaired)
	e.obs.ScrubRestored.Add(rep.Restored)
	e.obs.ScrubFenced.Add(rep.Fenced)
}
