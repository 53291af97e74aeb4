package core

import (
	"cmp"
	"fmt"
	"runtime"
	"slices"
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
// as RecoverTo's is: a restart and a rollback recover the same way. The
// rebuilt engine and arena, free list order included, depend only on the
// image, never on the scan width or the goroutine schedule.
func Recover(cfg psengine.Config, dev *pmem.Device) (*Engine, int64, error) {
	return RecoverParallel(cfg, dev, 0)
}

// RecoverParallel is Recover at an explicit width of the partitioned
// speed-up the paper proposes in Sec. VI-E: the arena's slot range is split
// across workers goroutines that scan and filter concurrently, filing each
// surviving record under its key's shard, and then every shard sorts its
// records and rebuilds its own index on a goroutine of its own. workers <= 0
// uses GOMAXPROCS; 1 is the sequential scan the property tests hold every
// other width to.
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

	// Phase 1: partitioned scan. Each worker filters its slot range —
	// records newer than the target are dropped (Observation 2's
	// batch-range atomicity) — and files the survivors under their key's
	// shard, in slot order.
	slots := uint32(arena.Slots())
	if uint32(workers) > slots {
		workers = max(int(slots), 1)
	}
	type rec struct {
		key     uint64
		version int64
		slot    uint32
	}
	scanned := make([][][]rec, workers) // worker, shard
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
			byShard := make([][]rec, len(eng.shards))
			scanErrs[w] = arena.ScanRange(lo, hi, func(r pmem.Record) error {
				if r.Version <= target {
					s := eng.shardIndex(r.Key)
					byShard[s] = append(byShard[s], rec{r.Key, r.Version, r.Slot})
				}
				return nil
			})
			scanned[w] = byShard
		}(w, lo, hi)
	}
	wg.Wait()
	for _, err := range scanErrs {
		if err != nil {
			eng.Close()
			return nil, 0, fmt.Errorf("core: recover: %w", err)
		}
	}

	// Phase 2: each shard rebuilds its own DRAM index, in parallel; keys
	// never cross shards, so no shard lock is taken. Sorting a shard's
	// records by key, version descending, slot ascending makes each key one
	// run whose first record is the newest survivor (of equal versions, the
	// lowest slot). Entries stay in PMem, so each key becomes one cold slot
	// and no heap object; the table is sized first, so inserts never rehash.
	// When the retained previous checkpoint still needs an older record of
	// the key (its first at or below the horizon, in another slot), that slot
	// is re-marked occupied and queued for retirement: the rebuilt retired
	// list is what lets the normal reclaim path free it once that checkpoint
	// is superseded.
	retire := make([][][2]rec, len(eng.shards)) // per shard: {retired, superseding} pairs
	for i, sh := range eng.shards {
		wg.Add(1)
		go func(i int, t *table) {
			defer wg.Done()
			size := 0
			for _, byShard := range scanned {
				size += len(byShard[i])
			}
			recs := make([]rec, 0, size)
			for _, byShard := range scanned {
				recs = append(recs, byShard[i]...)
				byShard[i] = nil
			}
			slices.SortFunc(recs, func(a, b rec) int {
				switch {
				case a.key != b.key:
					return cmp.Compare(a.key, b.key)
				case a.version != b.version:
					return cmp.Compare(b.version, a.version)
				}
				return cmp.Compare(a.slot, b.slot)
			})
			n := 0 // keys
			for j := range recs {
				if j == 0 || recs[j].key != recs[j-1].key {
					n++
				}
			}
			t.reserve(n)
			for j := 0; j < len(recs); {
				top := recs[j]
				pos, _ := t.find(top.key)
				t.insert(pos, top.key, top.version, coldWord(top.slot))
				arena.MarkOccupied(top.slot)
				found := horizon < 0
				for ; j < len(recs) && recs[j].key == top.key; j++ {
					if r := recs[j]; !found && r.version <= horizon {
						found = true
						if r.slot != top.slot {
							arena.MarkOccupied(r.slot)
							retire[i] = append(retire[i], [2]rec{r, top})
						}
					}
				}
			}
			eng.dram.ChargeWriteN(entryIndexBytes, int64(n))
			eng.entries.Add(int64(n))
		}(i, &sh.index)
	}
	wg.Wait()
	entries := int(eng.entries.Load())
	arena.FinishRecovery()
	for _, pairs := range retire {
		for _, p := range pairs {
			arena.Retire(p[0].slot, p[0].version, p[1].version)
		}
	}
	if entries > cfg.WithDefaults().Capacity {
		eng.Close()
		return nil, 0, fmt.Errorf("%w: recovered %d entries", psengine.ErrCapacity, entries)
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
