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
			ent := s.index[k]
			if ent == nil || ent.slot == noSlot {
				continue
			}
			if err := s.scrubEntryLocked(ent, targets, &rep); err != nil {
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

// scrubEntryLocked verifies one entry's persisted record and heals it if
// the media lost it, trying the heal ladder in order (see the file
// comment). targets is the caller's rollback-target snapshot. Restored and
// fenced heals discard state the caller must fence the epoch for. Caller
// holds the entry's shard lock exclusively.
//
// oevet:fence-need
// oevet:holds core.shard.mu 10
func (s *shard) scrubEntryLocked(ent *entry, targets []int64, rep *psengine.ScrubReport) error {
	e := s.eng
	rep.Scanned++
	err := e.arena.CheckRecord(ent.slot, ent.key)
	if err == nil {
		return nil
	}
	if !pmem.IsIntegrity(err) {
		return err
	}
	rep.Corrupt++
	// Least destructive first: undo a single flipped bit in place. The
	// record comes back bit-exact — version and checkpoint coverage
	// included — so no other heal (which at best reconstructs some other
	// version) can beat it. Poisoned media has nothing readable to correct.
	if !errors.Is(err, pmem.ErrPoisoned) {
		if cerr := e.arena.CorrectRecord(ent.slot, ent.key); cerr == nil {
			rep.Repaired++
			return nil
		} else if errors.Is(cerr, pmem.ErrPoisoned) {
			err = cerr // the corrective rewrite itself hit poisoned media
		}
	}
	// The bad record leaves circulation: a poisoned slot is quarantined
	// (its media range refuses reads until rewritten), a rotted slot's
	// media is fine and returns to the free list.
	bad := ent.slot
	if errors.Is(err, pmem.ErrPoisoned) {
		e.arena.Quarantine(bad)
		rep.Quarantined++
	} else {
		e.arena.Free(bad)
	}
	ent.slot = noSlot
	if ent.inDRAM() {
		// The DRAM copy is intact: re-persist the entry's current state.
		// flushLocked also settles any pending-checkpoint accounting. The
		// rewrite lands at dataVersion — if that abandons a rollback
		// target's only durable copy of this key, the heal regresses
		// recoverable state and must be reported as a restore so the node
		// fences its epoch (served state is unchanged, but a later
		// rollback would not be).
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
	// No DRAM copy. The entry must not owe the active checkpoint a flush
	// anymore — whatever happens below, that data is gone.
	if ent.ckptPending {
		ent.ckptPending = false
		e.noteFlushed(1)
	}
	// The newest surviving record at or below the completed checkpoint is
	// the authoritative checkpoint state (the same newest-wins rule the
	// recovery scan applies); adopt it if the space manager still holds it.
	ckpt := e.completedCkpt.Load()
	if rec, ok := e.arena.FindLatest(ent.key, ckpt); ok {
		if version, adopted := e.arena.AdoptRetired(rec.Slot); adopted {
			ent.slot = rec.Slot
			ent.persistedVersion = version
			ent.dataVersion = version
			ent.dirty = false
			rep.Restored++
			return nil
		}
	}
	// Fence: no recoverable record for this key. Drop it — after replay it
	// is reborn from its deterministic initializer on first touch.
	delete(s.index, ent.key)
	s.scrubKeysStale = true
	s.snapStale = true
	if ent.node.InList() {
		s.lru.Remove(&ent.node)
	}
	e.entries.Add(-1)
	rep.Fenced++
	return nil
}

// scrubKeysLocked returns this shard's keys in ascending order (the
// deterministic scrub and migration walk order), rebuilding the cached
// snapshot only when an index insert or delete invalidated it — a
// migration export pages through the shard one page per call, and an
// O(n log n) re-sort per page under the shard lock would dwarf the page
// it serves. Deletions observed through a stale snapshot
// are harmless (lookups find nil and skip), but the cache is invalidated
// on them anyway so the slice cannot pin dropped keys forever. Caller
// holds the shard lock.
//
// oevet:holds core.shard.mu 10
func (s *shard) scrubKeysLocked() []uint64 {
	if s.scrubKeys == nil || s.scrubKeysStale {
		s.scrubKeys = sortedKeys(s.index)
		s.scrubKeysStale = false
	}
	return s.scrubKeys
}

// sortedKeys snapshots an index's keys in ascending order.
func sortedKeys(index map[uint64]*entry) []uint64 {
	keys := make([]uint64, 0, len(index))
	for k := range index {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	return keys
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
