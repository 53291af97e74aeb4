// Package dramps implements the paper's DRAM-PS baseline (Table III): a
// classic pure-DRAM parameter server — sharded hash table, no PMem tier —
// with incremental checkpointing to a separate checkpoint device. It is the
// performance upper bound in the evaluation and the most expensive to
// provision (Table V).
package dramps

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"openembedding/internal/checkpoint"
	"openembedding/internal/device"
	"openembedding/internal/psengine"
	"openembedding/internal/simclock"
)

const numShards = 64

type shard struct {
	mu      sync.RWMutex
	entries map[uint64]*entry
}

type entry struct {
	mu    sync.Mutex
	buf   []float32 // weights ++ optimizer state
	dirty bool      // modified since the last checkpoint
}

// Engine is a pure-DRAM parameter-server storage engine.
type Engine struct {
	cfg    psengine.Config
	obs    *psengine.EngineObs
	dram   *device.Timed
	shards [numShards]shard

	writer *checkpoint.Writer
	// ckptDev is the checkpoint target's cost model: PMem charging to
	// cfg.Meter, the paper's default comparison.
	ckptDev *device.Timed

	// Asynchronous-checkpoint machinery (Options.AsyncCheckpoint).
	async          bool
	asyncWG        sync.WaitGroup
	asyncMu        sync.Mutex
	asyncErr       error
	asyncShardHook func(shard int) // test seam: called after each shard snapshot

	entries       atomic.Int64
	hits          atomic.Int64
	ckptsDone     atomic.Int64
	completedCkpt atomic.Int64
	lastEnded     atomic.Int64
	closed        atomic.Bool
}

// Options configures the parts of DRAM-PS that psengine.Config does not
// cover.
type Options struct {
	// CheckpointDir receives incremental checkpoint files; empty disables
	// checkpointing (RequestCheckpoint then fails).
	CheckpointDir string
	// AsyncCheckpoint makes RequestCheckpoint return immediately and dump
	// in the background while training continues — the alternative
	// Sec. II-A discusses and rejects: entries updated mid-dump make the
	// checkpoint a mixture of batch states, which "might affect the
	// convergence of the model in an unexpected way" on recovery.
	// Implemented for completeness and to demonstrate that hazard
	// (TestAsyncCheckpointTearsBatches); the synchronous default is the
	// industry practice the paper builds on.
	AsyncCheckpoint bool
}

// New creates a DRAM-PS engine.
func New(cfg psengine.Config, opts Options) (*Engine, error) {
	cfg = cfg.WithDefaults()
	e := &Engine{
		cfg:     cfg,
		obs:     psengine.NewEngineObs(cfg.Obs),
		dram:    device.NewTimedDRAM(cfg.Meter),
		ckptDev: device.NewTimedPMem(cfg.Meter),
		async:   opts.AsyncCheckpoint,
	}
	e.completedCkpt.Store(-1)
	e.lastEnded.Store(-1)
	for i := range e.shards {
		e.shards[i].entries = make(map[uint64]*entry)
	}
	if opts.CheckpointDir != "" {
		w, err := checkpoint.NewWriter(opts.CheckpointDir, e.ckptDev, cfg.Obs)
		if err != nil {
			return nil, err
		}
		e.writer = w
	}
	return e, nil
}

// Name implements psengine.Engine.
func (e *Engine) Name() string { return "dram-ps" }

// Dim implements psengine.Engine.
func (e *Engine) Dim() int { return e.cfg.Dim }

func (e *Engine) shardFor(key uint64) *shard {
	return &e.shards[(key*0x9e3779b97f4a7c15)>>58&(numShards-1)]
}

// Pull implements psengine.Engine.
func (e *Engine) Pull(batch int64, keys []uint64, dst []float32) error {
	if e.closed.Load() {
		return psengine.ErrClosed
	}
	dim := e.cfg.Dim
	meter := e.cfg.Meter
	meter.Charge(simclock.LockSync, psengine.LockCost)
	_, err := psengine.GatherRows(e.obs, keys, dst, dim, func(k uint64, out []float32) error {
		meter.Charge(simclock.Compute, psengine.IndexProbeCost)
		ent, err := e.lookupOrCreate(k)
		if err != nil {
			return err
		}
		copy(out, ent.buf[:dim])
		e.dram.ChargeRead(4 * dim)
		e.hits.Add(1)
		return nil
	})
	return err
}

func (e *Engine) lookupOrCreate(key uint64) (*entry, error) {
	s := e.shardFor(key)
	s.mu.RLock()
	ent := s.entries[key]
	s.mu.RUnlock()
	if ent != nil {
		return ent, nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if ent = s.entries[key]; ent != nil {
		return ent, nil
	}
	if e.entries.Load() >= int64(e.cfg.Capacity) {
		return nil, fmt.Errorf("%w: %d entries", psengine.ErrCapacity, e.entries.Load())
	}
	ent = &entry{buf: make([]float32, e.cfg.EntryFloats()), dirty: true}
	e.cfg.Initializer(key, ent.buf[:e.cfg.Dim])
	e.cfg.Optimizer.InitState(ent.buf[e.cfg.Dim:])
	e.dram.ChargeWrite(4 * e.cfg.EntryFloats())
	s.entries[key] = ent
	e.entries.Add(1)
	return ent, nil
}

// EndPullPhase implements psengine.Engine; DRAM-PS has no deferred work.
func (e *Engine) EndPullPhase(int64) {}

// WaitMaintenance implements psengine.Engine; DRAM-PS has no deferred work.
func (e *Engine) WaitMaintenance() {}

// Push implements psengine.Engine.
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
	meter := e.cfg.Meter
	meter.Charge(simclock.LockSync, psengine.LockCost)
	for i, k := range keys {
		meter.Charge(simclock.Compute, psengine.IndexProbeCost)
		s := e.shardFor(k)
		s.mu.RLock()
		ent := s.entries[k]
		s.mu.RUnlock()
		if ent == nil {
			return fmt.Errorf("dramps: push of unknown key %d", k)
		}
		ent.mu.Lock()
		e.cfg.Optimizer.Apply(ent.buf[:dim], ent.buf[dim:], grads[i*dim:(i+1)*dim])
		ent.dirty = true
		ent.mu.Unlock()
		e.dram.ChargeWrite(4 * dim)
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

// RequestCheckpoint implements psengine.Engine with the baseline's
// incremental checkpoint: dump every entry dirtied since the previous
// checkpoint to the checkpoint device. By default the dump is synchronous —
// training pauses for its duration (the overhead Figs. 12/13 measure).
// With Options.AsyncCheckpoint the call returns immediately and the dump
// proceeds concurrently with training, trading the pause for batch-level
// inconsistency.
func (e *Engine) RequestCheckpoint(batch int64) error {
	if e.writer == nil {
		return fmt.Errorf("dramps: checkpointing not configured")
	}
	if batch != e.lastEnded.Load() {
		return fmt.Errorf("dramps: checkpoint batch %d is not the last sealed batch %d", batch, e.lastEnded.Load())
	}
	if !e.async {
		// The synchronous dump is the baseline's training pause (Figs.
		// 12/13): the whole dump duration is checkpoint stall.
		var obsStart time.Duration
		if e.obs.Enabled() {
			obsStart = e.obs.Now()
		}
		if err := e.collectAndWrite(batch); err != nil {
			return err
		}
		if e.obs.Enabled() {
			e.obs.CkptStall.Observe(e.obs.Now() - obsStart)
		}
		e.completedCkpt.Store(batch)
		e.ckptsDone.Add(1)
		return nil
	}
	e.asyncWG.Add(1)
	go func() {
		defer e.asyncWG.Done()
		if err := e.collectAndWrite(batch); err != nil {
			e.asyncMu.Lock()
			if e.asyncErr == nil {
				e.asyncErr = err
			}
			e.asyncMu.Unlock()
			return
		}
		e.completedCkpt.Store(batch)
		e.ckptsDone.Add(1)
	}()
	return nil
}

// collectAndWrite snapshots the dirty set shard by shard and writes the
// delta. In async mode, entries updated after their shard was visited —
// but before the dump finishes — leave the file with a mixture of batch
// states (Sec. II-A's consistency hazard).
func (e *Engine) collectAndWrite(batch int64) error {
	var delta []checkpoint.Entry
	for i := range e.shards {
		s := &e.shards[i]
		s.mu.RLock()
		for k, ent := range s.entries {
			ent.mu.Lock()
			if ent.dirty {
				payload := make([]float32, len(ent.buf))
				copy(payload, ent.buf)
				ent.dirty = false
				delta = append(delta, checkpoint.Entry{Key: k, Payload: payload})
			}
			ent.mu.Unlock()
		}
		s.mu.RUnlock()
		if e.asyncShardHook != nil {
			e.asyncShardHook(i)
		}
	}
	return e.writer.WriteDelta(batch, delta)
}

// WaitCheckpoints implements psengine.Engine: it blocks until in-flight
// asynchronous checkpoints finish and returns the first background error.
func (e *Engine) WaitCheckpoints() error {
	e.asyncWG.Wait()
	e.asyncMu.Lock()
	defer e.asyncMu.Unlock()
	err := e.asyncErr
	e.asyncErr = nil
	return err
}

// CompletedCheckpoint implements psengine.Engine.
func (e *Engine) CompletedCheckpoint() int64 { return e.completedCkpt.Load() }

// Stats implements psengine.Engine.
func (e *Engine) Stats() psengine.Stats {
	n := e.entries.Load()
	return psengine.Stats{
		Entries:         n,
		CachedEntries:   n, // everything is in DRAM
		Hits:            e.hits.Load(),
		CheckpointsDone: e.ckptsDone.Load(),
	}
}

// Close implements psengine.Engine. It waits for in-flight asynchronous
// checkpoints.
func (e *Engine) Close() error {
	e.closed.Store(true)
	return e.WaitCheckpoints()
}

// Restore loads the newest checkpoint chain from dir into a fresh engine
// (the DRAM-PS recovery path of Sec. VI-E: read every checkpoint file from
// the checkpoint device, then repopulate DRAM).
func Restore(cfg psengine.Config, opts Options) (*Engine, int64, error) {
	e, err := New(cfg, opts)
	if err != nil {
		return nil, -1, err
	}
	state, newest, err := checkpoint.Restore(opts.CheckpointDir, -1, e.ckptDev)
	if err != nil {
		return nil, -1, err
	}
	for k, payload := range state {
		if len(payload) != e.cfg.EntryFloats() {
			return nil, -1, fmt.Errorf("dramps: restore: key %d payload %d floats, want %d", k, len(payload), e.cfg.EntryFloats())
		}
		s := e.shardFor(k)
		buf := make([]float32, len(payload))
		copy(buf, payload)
		s.entries[k] = &entry{buf: buf}
		e.entries.Add(1)
		e.dram.ChargeWrite(4 * len(payload))
	}
	e.lastEnded.Store(newest)
	e.completedCkpt.Store(newest)
	return e, newest, nil
}
