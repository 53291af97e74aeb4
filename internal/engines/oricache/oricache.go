// Package oricache implements the paper's Ori-Cache baseline (Table III,
// Observation 1): a generic fine-grained DRAM-PMem cache built the way a
// black-box caching layer would be — a concurrent hash map (Facebook's
// folly map in the paper) plus an LRU list (std::list), with every piece of
// cache maintenance performed inline on the request critical path:
//
//   - the LRU list is reordered on every access, including pushes (the pull
//     and update of a batch are "two independent operations" to the cache);
//   - a cache miss immediately evicts a victim and writes it back to PMem
//     before the request can complete;
//   - checkpointing is the incremental baseline, whose PMem writes contend
//     with training traffic.
//
// Those inline operations are exactly the parallelism overhead that makes
// Ori-Cache degrade as GPU counts (and therefore burst concurrency) grow.
package oricache

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"openembedding/internal/cache"
	"openembedding/internal/checkpoint"
	"openembedding/internal/device"
	"openembedding/internal/obs"
	"openembedding/internal/pmem"
	"openembedding/internal/psengine"
	"openembedding/internal/simclock"
)

const numShards = 64

type shard struct {
	mu      sync.RWMutex
	entries map[uint64]*entry
}

type entry struct {
	mu   sync.Mutex
	key  uint64
	buf  []float32 // non-nil while cached in DRAM
	slot uint32    // fixed PMem slot (allocated at creation)
	// dirty means the DRAM copy is newer than the PMem record.
	dirty bool
	node  cache.Node[*entry]
}

// Engine is the Ori-Cache storage engine.
type Engine struct {
	cfg      psengine.Config
	obs      *psengine.EngineObs
	evictObs *obs.Counter // single global LRU, so one shard-0 counter
	arena    *pmem.Arena
	dram     *device.Timed

	shards [numShards]shard

	// lruMu serializes the single LRU list — the std::list analog whose
	// lock every request thread fights for.
	lruMu sync.Mutex
	lru   *cache.List[*entry]

	// dirtyMu guards the dirty-since-last-checkpoint key set used by the
	// incremental checkpointer.
	dirtyMu    sync.Mutex
	dirtySince map[uint64]struct{}

	writer *checkpoint.Writer

	entries       atomic.Int64
	hits, misses  atomic.Int64
	evictions     atomic.Int64
	pmemReads     atomic.Int64
	pmemWrites    atomic.Int64
	ckptsDone     atomic.Int64
	completedCkpt atomic.Int64
	lastEnded     atomic.Int64
	closed        atomic.Bool
}

// Options configures Ori-Cache beyond psengine.Config.
type Options struct {
	// CheckpointDir receives incremental checkpoint files; empty disables
	// checkpointing.
	CheckpointDir string
}

// New creates an Ori-Cache engine over the given arena.
func New(cfg psengine.Config, arena *pmem.Arena, opts Options) (*Engine, error) {
	cfg = cfg.WithDefaults()
	if want := pmem.FloatBytes(cfg.EntryFloats()); arena.PayloadBytes() != want {
		return nil, fmt.Errorf("oricache: arena payload %dB does not match entry size %dB", arena.PayloadBytes(), want)
	}
	e := &Engine{
		cfg:        cfg,
		obs:        psengine.NewEngineObs(cfg.Obs),
		arena:      arena,
		dram:       device.NewTimedDRAM(cfg.Meter),
		lru:        cache.NewList[*entry](),
		dirtySince: make(map[uint64]struct{}),
	}
	e.completedCkpt.Store(-1)
	e.lastEnded.Store(-1)
	for i := range e.shards {
		e.shards[i].entries = make(map[uint64]*entry)
	}
	e.evictObs = e.obs.ShardEvictions(0)
	if opts.CheckpointDir != "" {
		// Checkpoints land on PMem charged to cfg.Meter: the default
		// comparison setup, and the source of the interference Fig. 12
		// measures.
		w, err := checkpoint.NewWriter(opts.CheckpointDir, device.NewTimedPMem(cfg.Meter), cfg.Obs)
		if err != nil {
			return nil, err
		}
		e.writer = w
	}
	return e, nil
}

// Name implements psengine.Engine.
func (e *Engine) Name() string { return "ori-cache" }

// Dim implements psengine.Engine.
func (e *Engine) Dim() int { return e.cfg.Dim }

// Arena exposes the backing arena.
func (e *Engine) Arena() *pmem.Arena { return e.arena }

func (e *Engine) shardFor(key uint64) *shard {
	return &e.shards[(key*0x9e3779b97f4a7c15)>>58&(numShards-1)]
}

// Pull implements psengine.Engine. Every key pays the full black-box cache
// protocol inline: map lookup, LRU reorder, and on a miss a PMem read plus
// an immediate victim writeback.
func (e *Engine) Pull(batch int64, keys []uint64, dst []float32) error {
	if e.closed.Load() {
		return psengine.ErrClosed
	}
	dim := e.cfg.Dim
	_, err := psengine.GatherRows(e.obs, keys, dst, dim, func(k uint64, out []float32) error {
		ent, err := e.access(k, true)
		if err != nil {
			return err
		}
		ent.mu.Lock()
		copy(out, ent.buf[:dim])
		ent.mu.Unlock()
		e.dram.ChargeRead(4 * dim)
		return nil
	})
	return err
}

// access resolves key to a cached entry, performing inline cache
// maintenance: creation on first touch, promotion on miss, LRU reorder on
// every access, and eviction when over capacity.
func (e *Engine) access(k uint64, isRead bool) (*entry, error) {
	meter := e.cfg.Meter
	meter.Charge(simclock.Compute, psengine.IndexProbeCost)
	meter.Charge(simclock.LockSync, psengine.LockCost) // map shard lock

	s := e.shardFor(k)
	s.mu.RLock()
	ent := s.entries[k]
	s.mu.RUnlock()
	if ent == nil {
		var err error
		ent, err = e.create(k)
		if err != nil {
			return nil, err
		}
	}

	ent.mu.Lock()
	cached := ent.buf != nil
	if !cached {
		// Inline promotion: PMem read on the critical path.
		var missStart time.Duration
		if e.obs.Enabled() {
			missStart = e.obs.Now()
		}
		buf := make([]byte, e.arena.PayloadBytes())
		if err := e.arena.ReadPayload(ent.slot, buf); err != nil {
			ent.mu.Unlock()
			return nil, err
		}
		ent.buf = make([]float32, e.cfg.EntryFloats())
		pmem.DecodeFloats(ent.buf, buf)
		e.dram.ChargeWrite(4 * e.cfg.EntryFloats())
		e.pmemReads.Add(1)
		e.misses.Add(1)
		if e.obs.Enabled() {
			e.obs.MissService.Observe(e.obs.Now() - missStart)
		}
	} else if isRead {
		e.hits.Add(1)
	}
	ent.mu.Unlock()

	// Inline LRU maintenance under the single global list lock — on every
	// access, reads and writes alike. This serialization is charged under
	// GlobalSync: it cannot parallelize across PS threads, and under the
	// synchronous-training bursts its effective cost grows with the number
	// of concurrent requesters (Observation 1).
	meter.Charge(simclock.GlobalSync, globalLRUCost)
	e.lruMu.Lock()
	if ent.node.InList() {
		e.lru.MoveToFront(&ent.node)
	} else {
		e.lru.PushFront(&ent.node)
	}
	victims := e.collectVictimsLocked()
	e.lruMu.Unlock()

	for _, v := range victims {
		if err := e.writeback(v); err != nil {
			return nil, err
		}
	}
	return ent, nil
}

// lruOpCost is the virtual CPU cost of one LRU relink (same calibration as
// the PMem-OE maintainer's; the difference is *where* it is paid — here, on
// the request critical path).
const lruOpCost = 15 * time.Nanosecond

func (e *Engine) create(k uint64) (*entry, error) {
	s := e.shardFor(k)
	s.mu.Lock()
	defer s.mu.Unlock()
	if ent := s.entries[k]; ent != nil {
		return ent, nil
	}
	if e.entries.Load() >= int64(e.cfg.Capacity) {
		return nil, fmt.Errorf("%w: %d entries", psengine.ErrCapacity, e.entries.Load())
	}
	slot, err := e.arena.Alloc()
	if err != nil {
		return nil, fmt.Errorf("oricache: %w", err)
	}
	ent := &entry{key: k, slot: slot, dirty: true}
	ent.node.Value = ent
	ent.buf = make([]float32, e.cfg.EntryFloats())
	e.cfg.Initializer(k, ent.buf[:e.cfg.Dim])
	e.cfg.Optimizer.InitState(ent.buf[e.cfg.Dim:])
	e.dram.ChargeWrite(4 * e.cfg.EntryFloats())
	s.entries[k] = ent
	e.entries.Add(1)
	e.markDirty(k)
	return ent, nil
}

// collectVictimsLocked unlinks LRU victims while over capacity; the caller
// writes them back outside the list lock (their entry mutex orders the
// flush against concurrent use).
func (e *Engine) collectVictimsLocked() []*entry {
	var victims []*entry
	for e.lru.Len() > e.cfg.CacheEntries {
		v := e.lru.Back().Value
		e.lru.Remove(&v.node)
		victims = append(victims, v)
	}
	return victims
}

// writeback flushes a victim to its PMem slot (inline, on the request
// path) and drops the DRAM copy.
func (e *Engine) writeback(v *entry) error {
	v.mu.Lock()
	defer v.mu.Unlock()
	if v.buf == nil {
		return nil // already written back by a racing access
	}
	if v.dirty {
		buf := make([]byte, e.arena.PayloadBytes())
		pmem.EncodeFloats(buf, v.buf)
		if err := e.arena.WriteRecord(v.slot, v.key, 0, buf); err != nil {
			return err
		}
		v.dirty = false
		e.pmemWrites.Add(1)
	}
	v.buf = nil
	e.evictions.Add(1)
	e.evictObs.Add(1)
	return nil
}

// EndPullPhase implements psengine.Engine; Ori-Cache has no deferred work.
func (e *Engine) EndPullPhase(int64) {}

// WaitMaintenance implements psengine.Engine; Ori-Cache has no deferred work.
func (e *Engine) WaitMaintenance() {}

// Push implements psengine.Engine. The cache treats it as an independent
// access: full map lookup, LRU reorder, possible miss handling — the
// redundant work the paper's co-designed pipeline eliminates.
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
	for i, k := range keys {
		ent, err := e.access(k, false)
		if err != nil {
			return err
		}
		ent.mu.Lock()
		if ent.buf == nil {
			ent.mu.Unlock()
			// Evicted between access and lock under extreme pressure; retry.
			if ent, err = e.access(k, false); err != nil {
				return err
			}
			ent.mu.Lock()
		}
		e.cfg.Optimizer.Apply(ent.buf[:dim], ent.buf[dim:], grads[i*dim:(i+1)*dim])
		ent.dirty = true
		ent.mu.Unlock()
		e.dram.ChargeWrite(4 * dim)
		e.markDirty(k)
	}
	if e.obs.Enabled() {
		e.obs.Push.Observe(e.obs.Now() - obsStart)
	}
	return nil
}

func (e *Engine) markDirty(k uint64) {
	e.dirtyMu.Lock()
	e.dirtySince[k] = struct{}{}
	e.dirtyMu.Unlock()
}

// EndBatch implements psengine.Engine.
func (e *Engine) EndBatch(batch int64) error {
	if e.closed.Load() {
		return psengine.ErrClosed
	}
	e.lastEnded.Store(batch)
	return nil
}

// RequestCheckpoint implements psengine.Engine with the incremental
// baseline: synchronously dump every entry dirtied since the last
// checkpoint, whether it currently lives in DRAM or PMem.
func (e *Engine) RequestCheckpoint(batch int64) error {
	if e.writer == nil {
		return fmt.Errorf("oricache: checkpointing not configured")
	}
	if batch != e.lastEnded.Load() {
		return fmt.Errorf("oricache: checkpoint batch %d is not the last sealed batch %d", batch, e.lastEnded.Load())
	}
	// Like DRAM-PS, the incremental dump runs synchronously: its whole
	// duration is checkpoint stall visible to training.
	var obsStart time.Duration
	if e.obs.Enabled() {
		obsStart = e.obs.Now()
	}
	e.dirtyMu.Lock()
	dirty := e.dirtySince
	e.dirtySince = make(map[uint64]struct{})
	e.dirtyMu.Unlock()

	delta := make([]checkpoint.Entry, 0, len(dirty))
	scratch := make([]byte, e.arena.PayloadBytes())
	for k := range dirty {
		s := e.shardFor(k)
		s.mu.RLock()
		ent := s.entries[k]
		s.mu.RUnlock()
		if ent == nil {
			continue
		}
		payload := make([]float32, e.cfg.EntryFloats())
		ent.mu.Lock()
		if ent.buf != nil {
			copy(payload, ent.buf)
		} else {
			if err := e.arena.ReadPayload(ent.slot, scratch); err != nil {
				ent.mu.Unlock()
				return err
			}
			pmem.DecodeFloats(payload, scratch)
			e.pmemReads.Add(1)
		}
		ent.mu.Unlock()
		delta = append(delta, checkpoint.Entry{Key: k, Payload: payload})
	}
	if err := e.writer.WriteDelta(batch, delta); err != nil {
		return err
	}
	if e.obs.Enabled() {
		e.obs.CkptStall.Observe(e.obs.Now() - obsStart)
	}
	e.completedCkpt.Store(batch)
	e.ckptsDone.Add(1)
	return nil
}

// CompletedCheckpoint implements psengine.Engine.
func (e *Engine) CompletedCheckpoint() int64 { return e.completedCkpt.Load() }

// WaitCheckpoints implements psengine.Engine; checkpoints are synchronous.
func (e *Engine) WaitCheckpoints() error { return nil }

// Stats implements psengine.Engine.
func (e *Engine) Stats() psengine.Stats {
	e.lruMu.Lock()
	cached := int64(e.lru.Len())
	e.lruMu.Unlock()
	return psengine.Stats{
		Entries:         e.entries.Load(),
		CachedEntries:   cached,
		Hits:            e.hits.Load(),
		Misses:          e.misses.Load(),
		PMemReads:       e.pmemReads.Load(),
		PMemWrites:      e.pmemWrites.Load(),
		Evictions:       e.evictions.Load(),
		CheckpointsDone: e.ckptsDone.Load(),
	}
}

// Close implements psengine.Engine.
func (e *Engine) Close() error {
	e.closed.Store(true)
	return nil
}

// globalLRUCost is the per-access cost of the single global lock plus list
// splice under the synchronous burst: an exclusive cache-line transfer per
// lock handoff and three pointer writes, ~500ns when dozens of request
// threads hammer one line (measured figures for contended std::mutex +
// std::list on multi-socket servers are in this range even before
// queueing, which the simulator's contention model adds on top).
const globalLRUCost = 500 * time.Nanosecond
