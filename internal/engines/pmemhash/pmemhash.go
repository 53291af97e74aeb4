// Package pmemhash implements the paper's PMem-Hash baseline (Observation
// 1, Fig. 3 and Fig. 15): the parameter server's storage engine replaced
// wholesale by a PMem-resident concurrent hash table (libpmemobj's
// concurrent_hash_map in the paper). There is no DRAM tier: every lookup
// pays a PMem read, and every update is a transactional read-modify-write —
// decode from PMem, apply the optimizer, write back with an undo-log copy —
// which is why it is 3-6x slower than DRAM-PS and degrades further under
// burst concurrency.
package pmemhash

import (
	"time"

	"fmt"
	"openembedding/internal/device"
	"sync"
	"sync/atomic"

	"openembedding/internal/pmem"
	"openembedding/internal/psengine"
	"openembedding/internal/simclock"
)

const numShards = 64

type shard struct {
	mu    sync.RWMutex
	slots map[uint64]uint32 // key -> arena slot
}

// Engine is the PMem-resident hash-table storage engine.
type Engine struct {
	cfg   psengine.Config
	obs   *psengine.EngineObs
	arena *pmem.Arena

	shards  [numShards]shard
	stripes [256]sync.Mutex // per-key update serialization

	entries       atomic.Int64
	pmemReads     atomic.Int64
	pmemWrites    atomic.Int64
	completedCkpt atomic.Int64
	lastEnded     atomic.Int64
	closed        atomic.Bool
}

// New creates a PMem-Hash engine over the given arena.
func New(cfg psengine.Config, arena *pmem.Arena) (*Engine, error) {
	cfg = cfg.WithDefaults()
	if want := pmem.FloatBytes(cfg.EntryFloats()); arena.PayloadBytes() != want {
		return nil, fmt.Errorf("pmemhash: arena payload %dB does not match entry size %dB", arena.PayloadBytes(), want)
	}
	e := &Engine{cfg: cfg, obs: psengine.NewEngineObs(cfg.Obs), arena: arena}
	e.completedCkpt.Store(-1)
	e.lastEnded.Store(-1)
	for i := range e.shards {
		e.shards[i].slots = make(map[uint64]uint32)
	}
	return e, nil
}

// Name implements psengine.Engine.
func (e *Engine) Name() string { return "pmem-hash" }

// Dim implements psengine.Engine.
func (e *Engine) Dim() int { return e.cfg.Dim }

// Arena exposes the backing arena.
func (e *Engine) Arena() *pmem.Arena { return e.arena }

func (e *Engine) shardFor(key uint64) *shard {
	return &e.shards[(key*0x9e3779b97f4a7c15)>>58&(numShards-1)]
}

func (e *Engine) slotFor(key uint64, createBatch int64) (uint32, error) {
	meter := e.cfg.Meter
	// The hash structure itself lives in PMem: a probe costs a PMem-latency
	// pointer chase, not a DRAM one.
	meter.Charge(simclock.PMemRead, pmemProbeCost())
	meter.Charge(simclock.LockSync, psengine.LockCost)
	s := e.shardFor(key)
	s.mu.RLock()
	slot, ok := s.slots[key]
	s.mu.RUnlock()
	if ok {
		return slot, nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if slot, ok = s.slots[key]; ok {
		return slot, nil
	}
	if e.entries.Load() >= int64(e.cfg.Capacity) {
		return 0, fmt.Errorf("%w: %d entries", psengine.ErrCapacity, e.entries.Load())
	}
	slot, err := e.arena.Alloc()
	if err != nil {
		return 0, fmt.Errorf("pmemhash: %w", err)
	}
	buf := make([]float32, e.cfg.EntryFloats())
	e.cfg.Initializer(key, buf[:e.cfg.Dim])
	e.cfg.Optimizer.InitState(buf[e.cfg.Dim:])
	payload := make([]byte, e.arena.PayloadBytes())
	pmem.EncodeFloats(payload, buf)
	if err := e.arena.WriteRecord(slot, key, createBatch, payload); err != nil {
		e.arena.Free(slot)
		return 0, err
	}
	e.pmemWrites.Add(1)
	s.slots[key] = slot
	e.entries.Add(1)
	return slot, nil
}

// Pull implements psengine.Engine: every key is read straight from PMem.
func (e *Engine) Pull(batch int64, keys []uint64, dst []float32) error {
	if e.closed.Load() {
		return psengine.ErrClosed
	}
	buf := make([]byte, e.arena.PayloadBytes())
	d, err := psengine.GatherRows(e.obs, keys, dst, e.cfg.Dim, func(k uint64, out []float32) error {
		slot, err := e.slotFor(k, batch)
		if err != nil {
			return err
		}
		if err := e.arena.ReadPayload(slot, buf); err != nil {
			return err
		}
		pmem.DecodeFloats(out, buf)
		e.pmemReads.Add(1)
		return nil
	})
	if err != nil {
		return err
	}
	// Every PMem-Hash read is a miss by construction — the same reading
	// Stats reports — so pull latency doubles as miss service time.
	e.obs.MissService.Observe(d)
	return nil
}

// EndPullPhase implements psengine.Engine; there is no deferred work.
func (e *Engine) EndPullPhase(int64) {}

// WaitMaintenance implements psengine.Engine; there is no deferred work.
func (e *Engine) WaitMaintenance() {}

// Push implements psengine.Engine: a transactional read-modify-write per
// key. The undo-log copy that makes the update failure-atomic costs a
// second PMem write of the record — the write amplification that sinks
// this design under DLRM's update-heavy bursts.
func (e *Engine) Push(batch int64, keys []uint64, grads []float32) error {
	if e.closed.Load() {
		return psengine.ErrClosed
	}
	if err := psengine.CheckBuf(keys, grads, e.cfg.Dim); err != nil {
		return err
	}
	var obsStart time.Duration
	if e.obs.Enabled() {
		obsStart = e.obs.Now()
	}
	dim := e.cfg.Dim
	raw := make([]byte, e.arena.PayloadBytes())
	vals := make([]float32, e.cfg.EntryFloats())
	for i, k := range keys {
		slot, err := e.slotFor(k, batch)
		if err != nil {
			return err
		}
		stripe := &e.stripes[k%uint64(len(e.stripes))]
		stripe.Lock()
		if err := e.arena.ReadPayload(slot, raw); err != nil {
			stripe.Unlock()
			return err
		}
		pmem.DecodeFloats(vals, raw)
		e.cfg.Optimizer.Apply(vals[:dim], vals[dim:], grads[i*dim:(i+1)*dim])
		// Undo-log: persist the old image before overwriting (charged as an
		// extra PMem write of the same size).
		e.cfg.Meter.Charge(simclock.PMemWrite, undoLogCost(e.arena))
		pmem.EncodeFloats(raw, vals)
		if err := e.arena.WriteRecord(slot, k, batch, raw); err != nil {
			stripe.Unlock()
			return err
		}
		stripe.Unlock()
		e.pmemReads.Add(1)
		e.pmemWrites.Add(2)
	}
	if e.obs.Enabled() {
		e.obs.Push.Observe(e.obs.Now() - obsStart)
	}
	return nil
}

// EndBatch implements psengine.Engine.
func (e *Engine) EndBatch(batch int64) error {
	if e.closed.Load() {
		return psengine.ErrClosed
	}
	e.lastEnded.Store(batch)
	return nil
}

// RequestCheckpoint implements psengine.Engine. Entries are already
// persistent (though without batch-level atomicity — Observation 2); the
// baseline simply records the batch ID. The evaluation never runs
// PMem-Hash with checkpointing.
func (e *Engine) RequestCheckpoint(batch int64) error {
	if batch != e.lastEnded.Load() {
		return fmt.Errorf("pmemhash: checkpoint batch %d is not the last sealed batch %d", batch, e.lastEnded.Load())
	}
	if err := e.arena.SetCheckpointedBatch(batch); err != nil {
		return err
	}
	e.completedCkpt.Store(batch)
	return nil
}

// CompletedCheckpoint implements psengine.Engine.
func (e *Engine) CompletedCheckpoint() int64 { return e.completedCkpt.Load() }

// WaitCheckpoints implements psengine.Engine; checkpoints are synchronous.
func (e *Engine) WaitCheckpoints() error { return nil }

// Stats implements psengine.Engine.
func (e *Engine) Stats() psengine.Stats {
	return psengine.Stats{
		Entries:    e.entries.Load(),
		Misses:     e.pmemReads.Load(), // every read goes to PMem
		PMemReads:  e.pmemReads.Load(),
		PMemWrites: e.pmemWrites.Load(),
	}
}

// Close implements psengine.Engine.
func (e *Engine) Close() error {
	e.closed.Store(true)
	return nil
}

// pmemProbeCost is the virtual time of one PMem-resident hash probe: the
// bucket chain of libpmemobj's concurrent_hash_map costs ~3 dependent
// 64-byte pointer chases at PMem random-read latency.
func pmemProbeCost() time.Duration { return 3 * device.PMem().ReadCost(64) }

// undoLogCost is the virtual time of one transactional record update
// beyond the data write itself: tx begin/commit bookkeeping, the undo-log
// copy of the old image, and the extra fences — a few microseconds per
// small object on real Optane with libpmemobj, dominated by 256 B-granular
// media writes.
func undoLogCost(a *pmem.Arena) time.Duration {
	return 5*time.Microsecond + device.PMem().WriteCost(a.PayloadBytes())
}
