package core

import (
	"fmt"
	"runtime"
	"sync"

	"openembedding/internal/pmem"
	"openembedding/internal/psengine"
)

// Recover rebuilds a PMem-OE engine from a device after a failure
// (Sec. V-C): open the arena, read the durable Checkpointed Batch ID, scan
// every record, discard versions newer than the checkpoint, keep the newest
// surviving record per key, and reconstruct the DRAM hash index. The
// returned engine resumes training at checkpoint+1 with a cold cache.
//
// Recovery cost (the Fig. 14 experiment) is dominated by the sequential
// PMem scan plus index reconstruction, both charged to cfg.Meter.
//
// One fine point: an entry first touched in the batch *after* the
// checkpoint carries the checkpoint's batch as its data version (its
// initial state is "the state as of the previous batch's end"), so if its
// init-valued record reached PMem it is recovered too. That is exactly the
// deterministic state the entry would be reborn with on first touch after
// resuming, so recovered training is bit-identical either way.
//
// The scan is the partitioned one of RecoverParallel at GOMAXPROCS workers,
// as RecoverTo's is: a restart and a rollback recover the same way.
func Recover(cfg psengine.Config, dev *pmem.Device) (*Engine, int64, error) {
	return RecoverParallel(cfg, dev, 0)
}

// RecoverParallel is Recover at an explicit width of the partitioned
// speed-up the paper proposes in Sec. VI-E: the arena's slot range is split
// across workers goroutines that scan and filter concurrently, and the
// surviving records are merged into the index afterwards. workers <= 0 uses
// GOMAXPROCS; 1 is the sequential scan the property tests hold every other
// width to.
func RecoverParallel(cfg psengine.Config, dev *pmem.Device, workers int) (*Engine, int64, error) {
	return recoverImpl(cfg, dev, workers, 0, false)
}

// RecoverTo rebuilds an engine at an explicit retained checkpoint instead
// of the latest durable one — the rollback step of coordinated cluster
// replay (DESIGN.md §10). target must be one of the checkpoints the image
// retains: the durable Checkpointed Batch ID, or (for engines configured
// with RetainCheckpoints >= 2) the durable previous ID; -1 means "recover
// to scratch" and is valid only while the image retains no older state.
// Rolling back rewrites the durable IDs so the rollback itself survives a
// crash. RecoverTo with target equal to the latest checkpoint is exactly
// Recover, which is what makes the rollback RPC idempotent. Adopting the
// recovered engine regresses served state past target, so the adopter owes
// an epoch fence.
//
// oevet:fence-need
func RecoverTo(cfg psengine.Config, dev *pmem.Device, target int64) (*Engine, int64, error) {
	return recoverImpl(cfg, dev, 0, target, true)
}

func recoverImpl(cfg psengine.Config, dev *pmem.Device, workers int, target int64, haveTarget bool) (*Engine, int64, error) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	arena, err := pmem.OpenArena(dev)
	if err != nil {
		return nil, 0, fmt.Errorf("core: recover: %w", err)
	}
	// Both durable checkpoint header words are self-validating (a CRC-packed
	// encoding, pmem.Arena); a word that fails validation is reported typed
	// and handled here instead of recovering to a garbage batch ID.
	ckpt, cerr := arena.CheckpointedBatch()
	if cerr != nil && !pmem.IsIntegrity(cerr) {
		return nil, 0, fmt.Errorf("core: recover: %w", cerr)
	}
	prev, perr := arena.PrevCheckpointedBatch()
	if perr != nil && !pmem.IsIntegrity(perr) {
		return nil, 0, fmt.Errorf("core: recover: %w", perr)
	}
	info := RecoverInfo{CurCorrupt: cerr != nil, PrevCorrupt: perr != nil}
	rewrite := false // rewrite the durable header words even if target == ckpt
	switch {
	case cerr == nil && perr == nil:
		if prev >= ckpt {
			// A crash between the prev and cur header stores can leave
			// prev == cur; either way only one checkpoint is retained.
			prev = -1
		}
	case cerr == nil:
		// The previous-checkpoint word is corrupt: the current checkpoint is
		// intact and fully usable, but the older one is gone. Only an explicit
		// request for it fails; recovery to the current checkpoint proceeds
		// (and rewrites the bad word below, via the prev == -1 collapse).
		if haveTarget && target != ckpt {
			return nil, 0, fmt.Errorf("core: recover: target checkpoint %d not retained (previous checkpoint lost: %w)",
				target, perr)
		}
		prev = -1
		rewrite = true
	case perr == nil:
		// The current-checkpoint word is corrupt: fall back to the retained
		// previous checkpoint — that is exactly what it is retained for. The
		// fallback never happens silently for an explicit-target caller, and
		// never invents a scratch recovery when no previous checkpoint exists.
		if prev < 0 {
			return nil, 0, fmt.Errorf("core: recover: no usable checkpoint (no previous retained: %w)", cerr)
		}
		if haveTarget && target != prev {
			return nil, 0, fmt.Errorf("core: recover: target checkpoint %d not retained (current checkpoint lost: %w)",
				target, cerr)
		}
		info.FellBack = true
		ckpt, prev = prev, -1
		rewrite = true
	default:
		return nil, 0, fmt.Errorf("core: recover: no usable checkpoint (both header words corrupt: %w)", cerr)
	}
	if !haveTarget {
		target = ckpt
	} else if target != ckpt && target != prev {
		return nil, 0, fmt.Errorf("core: recover: target checkpoint %d not retained (have %d, prev %d)",
			target, ckpt, prev)
	}
	info.Target = target
	// horizon is the older checkpoint that must STAY recoverable after this
	// recovery: rolling back to prev (or scratch) discards it.
	horizon := int64(-1)
	if target == ckpt {
		horizon = prev
	}

	eng, err := New(cfg, arena)
	if err != nil {
		return nil, 0, err
	}
	eng.recoverInfo = info
	if info.FellBack {
		eng.obs.RecoverFallback.Add(1)
	}
	finish := func() (*Engine, int64, error) {
		if target != ckpt || rewrite {
			// Durably adopt the rollback, cur first: a crash between the
			// stores leaves prev == cur, which re-collapses to "one
			// retained" above.
			if err := arena.SetCheckpointedBatch(target); err != nil {
				eng.Close()
				return nil, 0, fmt.Errorf("core: recover: %w", err)
			}
			if err := arena.SetPrevCheckpointedBatch(-1); err != nil {
				eng.Close()
				return nil, 0, fmt.Errorf("core: recover: %w", err)
			}
		}
		eng.lastEnded.Store(target)
		eng.completedCkpt.Store(target)
		eng.prevCompleted.Store(horizon)
		return eng, target, nil
	}
	if target < 0 {
		// Recovering to scratch: nothing to index, every slot is free.
		arena.FinishRecovery()
		eng.lastEnded.Store(-1)
		if target != ckpt || rewrite {
			return finish()
		}
		return eng, -1, nil
	}

	type best struct {
		slot    uint32
		version int64
	}

	// Phase 1: partitioned scan. Each worker filters its slot range —
	// records newer than the target are dropped (Observation 2's
	// batch-range atomicity) — keeping the newest survivor per key, plus
	// the newest record at or below the horizon when that is an older slot
	// (the retained previous checkpoint still needs it).
	slots := uint32(arena.Slots())
	if uint32(workers) > slots {
		workers = int(slots)
		if workers == 0 {
			workers = 1
		}
	}
	type partial struct {
		newest map[uint64]best // newest version <= target
		horiz  map[uint64]best // newest version <= horizon
	}
	partials := make([]partial, workers)
	scanErrs := make([]error, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		lo := slots / uint32(workers) * uint32(w)
		hi := slots / uint32(workers) * uint32(w+1)
		if w == workers-1 {
			hi = slots
		}
		wg.Add(1)
		go func(w int, lo, hi uint32) {
			defer wg.Done()
			local := partial{newest: make(map[uint64]best)}
			if horizon >= 0 {
				local.horiz = make(map[uint64]best)
			}
			scanErrs[w] = arena.ScanRange(lo, hi, func(r pmem.Record) error {
				if r.Version > target {
					return nil
				}
				if p, ok := local.newest[r.Key]; !ok || r.Version > p.version {
					local.newest[r.Key] = best{slot: r.Slot, version: r.Version}
				}
				if horizon >= 0 && r.Version <= horizon {
					if p, ok := local.horiz[r.Key]; !ok || r.Version > p.version {
						local.horiz[r.Key] = best{slot: r.Slot, version: r.Version}
					}
				}
				return nil
			})
			partials[w] = local
		}(w, lo, hi)
	}
	wg.Wait()
	for _, err := range scanErrs {
		if err != nil {
			eng.Close()
			return nil, 0, fmt.Errorf("core: recover: %w", err)
		}
	}

	// Phase 2: merge partitions (a key's records can land in any
	// partition; newest version wins).
	newest := partials[0].newest
	horiz := partials[0].horiz
	for _, local := range partials[1:] {
		for key, b := range local.newest {
			if p, ok := newest[key]; !ok || b.version > p.version {
				newest[key] = b
			}
		}
		for key, b := range local.horiz {
			if p, ok := horiz[key]; !ok || b.version > p.version {
				horiz[key] = b
			}
		}
	}

	// Phase 3: rebuild the per-shard DRAM indexes; entries stay in PMem, so
	// each key becomes one cold slot and no heap object. Each shard's table
	// is sized for its keys first, so the inserts never rehash. Recovery is
	// single-threaded past the scan, so no shard locks are needed.
	perShard := make([]int, len(eng.shards))
	for key := range newest {
		perShard[eng.shardIndex(key)]++
	}
	for i, s := range eng.shards {
		s.index.reserve(perShard[i])
	}
	//oevet:ignore iteration order reaches only where a key's slot lands in its probe run, which no lookup or walk observes (lookups compare keys, walks sort them); MarkOccupied takes a per-slot max, and ChargeWrite sums a commutative counter
	for key, b := range newest {
		t := &eng.shardFor(key).index
		pos, _ := t.find(key)
		t.insert(pos, key, b.version, coldWord(b.slot))
		arena.MarkOccupied(b.slot)
		eng.dram.ChargeWrite(entryIndexBytes)
	}
	// Horizon records that live in a different slot than the indexed winner
	// are re-marked occupied and re-retired: the rebuilt in-DRAM retired
	// list is what lets the normal reclaim path free them once the retained
	// previous checkpoint is superseded.
	//
	retire := make(map[uint64][2]best, 0)
	//oevet:ignore iteration order cannot reach the result: each key touches only its own slots and the retired set is order-insensitive for reclaim
	for key, hb := range horiz {
		tb := newest[key] // present: horizon records also match <= target
		if tb.slot == hb.slot {
			continue
		}
		arena.MarkOccupied(hb.slot)
		retire[key] = [2]best{hb, tb}
	}
	eng.entries.Store(int64(len(newest)))
	arena.FinishRecovery()
	//oevet:ignore iteration order cannot reach the result: Retire appends independent slots; reclaim decisions depend only on the (version, supersededBy) pairs
	for _, pair := range retire {
		arena.Retire(pair[0].slot, pair[0].version, pair[1].version)
	}
	if len(newest) > cfg.WithDefaults().Capacity {
		eng.Close()
		return nil, 0, fmt.Errorf("%w: recovered %d entries", psengine.ErrCapacity, len(newest))
	}
	return finish()
}

// entryIndexBytes is the DRAM footprint charged per rebuilt index entry
// (hash bucket slot plus entry header). It is the simulated machine's cost,
// the meter's model of the paper's index, not this process's Go footprint
// (a cold slot, ≈40 bytes; DESIGN.md §23), and it does not follow the
// latter: recovery's virtual time stays comparable across implementations.
const entryIndexBytes = 64

// RecoverInfo describes how an engine was rebuilt: which checkpoint it
// landed on and whether corrupt durable header words forced a fallback.
// FellBack means the current-checkpoint word was corrupt and recovery
// adopted the retained previous checkpoint instead — the caller (the PS
// node) must surface that as a rollback, exactly like an explicit
// RecoverTo, so the trainer replays the lost batches.
type RecoverInfo struct {
	Target      int64 // checkpoint the engine recovered to (-1: scratch)
	FellBack    bool  // cur word corrupt; recovered to prev instead
	CurCorrupt  bool  // the durable current-checkpoint word failed validation
	PrevCorrupt bool  // the durable previous-checkpoint word failed validation
}

// RecoverInfo reports how this engine was recovered. Zero-valued for
// engines built by New rather than Recover/RecoverTo.
func (e *Engine) RecoverInfo() RecoverInfo { return e.recoverInfo }
