// Package core is the PMem-OE engine. Simulation results derived from it
// must be bit-reproducible across runs; the marker below puts the whole
// package under the determinism analyzer (internal/analysis).
//
//oevet:deterministic-package
package core

import (
	"fmt"
	"math/bits"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"openembedding/internal/cache"
	"openembedding/internal/device"
	"openembedding/internal/pmem"
	"openembedding/internal/psengine"
	"openembedding/internal/simclock"
)

// Engine is the PMem-OE storage engine for one embedding table. It
// implements psengine.Engine.
//
// The engine is a thin coordinator over cfg.Shards independent shards, each
// owning its slice of the key space (index, LRU, access/side queues, lock).
// Pull and Push partition their key batch by hash and run the per-shard
// sublists one after another on the caller's goroutine: concurrency comes
// from the workers' concurrent requests, which contend only where their
// keys share a shard. The phase boundaries (EndPullPhase, EndBatch) barrier
// over all shards, so the batch protocol and checkpoint semantics are
// exactly those of the unsharded engine. Shards=1 reproduces the unsharded
// layout bit-for-bit in simulated time.
//
// The PMem arena is shared: it is internally locked, and concurrent
// per-shard flushes target disjoint slots, which the device documents as
// safe.
type Engine struct {
	cfg   psengine.Config
	arena *pmem.Arena
	dram  *device.Timed // DRAM timing charges for cache copies

	shards     []*shard
	shardShift uint // 64 - log2(len(shards)); see shardIndex

	// entries counts distinct entries across all shards; Capacity is
	// enforced by atomic reservation so shards stay independent.
	entries atomic.Int64

	// Checkpoint coordination lives here, not in the shards: a checkpoint
	// spans every shard's dirty entries, and completion must be detected
	// exactly once. ckptMu is a small leaf mutex ordered AFTER shard locks
	// (a flush holds its shard's mu when it reports progress); it is never
	// held while acquiring a shard lock. See checkpoint.go.
	//
	// oevet:lockrank core.ckptMu 20
	ckptMu         rankedMutex
	ckptQueue      []int64      // pending checkpoint requests (Fig. 5 right)
	ckptActive     int64        // batch being checkpointed, or -1
	ckptActivating bool         // an activation scan is in flight
	ckptDraining   atomic.Int32 // finalizer runs taken off the list, not yet committed
	ckptFlushList  []*entry     // memoized entries the active checkpoint needs
	// ckptScan is the activation scan's list, kept for the next one. Only
	// the activation that set ckptActivating touches it.
	ckptScan []*entry
	// ckptRemaining counts flushes the active checkpoint still needs;
	// per-shard flushes decrement it without any shared lock.
	ckptRemaining atomic.Int64

	// maintenance scheduling
	maintCh   chan maintTask
	maintWG   sync.WaitGroup // the background maintainer
	pending   sync.WaitGroup // outstanding maintenance tasks
	maintErrs maintErrBox

	// lastEnded is the most recent batch EndBatch sealed.
	lastEnded atomic.Int64

	closed atomic.Bool
	// closeMu orders EndPullPhase's sends on maintCh (held shared) before
	// Close closes the channel (held exclusively): a node swaps its engine
	// while other connections are mid-batch (ps.Node.Rollback).
	closeMu sync.RWMutex

	// serveOn gates the serving tier (serve.go): when set, maintenance
	// rounds republish per-shard hot-set snapshots for ServeRead.
	serveOn atomic.Bool

	// counters
	hits, misses, evictions atomic.Int64
	pmemReads, pmemWrites   atomic.Int64
	ckptsDone               atomic.Int64
	completedCkpt           atomic.Int64
	// prevCompleted is the checkpoint retained behind completedCkpt (-1 for
	// none). Only meaningful with cfg.RetainCheckpoints >= 2; mirrored
	// durably in the arena header so recovery can roll back one checkpoint.
	prevCompleted atomic.Int64

	// recoverInfo records how the engine was recovered (recover.go).
	recoverInfo RecoverInfo

	// obs is the engine's metric set and span source (all no-ops when
	// cfg.Obs is nil). Metric recording is atomics-only, so it is safe
	// under any engine lock; a span ends on the ring's leaf mutex.
	// Timestamps come from obs.Now() and obs.Start, never the time package
	// (this package is deterministic, and the readings are observational
	// only — the simulated experiments leave obs nil).
	obs *psengine.EngineObs

	// scratchPool recycles the per-request partition/access-record buffers
	// so steady-state Pull and Push allocate nothing.
	scratchPool sync.Pool
}

type maintTask struct {
	batch   int64
	newest  int64 // the batch's flush-before-overwrite threshold (roundThreshold)
	sh      *shard
	entries []accessRec
}

// opScratch holds one request's reusable buffers. The shards of a request
// run one after another, so every buffer but the partition is one slice
// that each shard's call reuses in turn.
type opScratch struct {
	byShard [][]int32      // positions in keys partitioned by shard
	recs    []accessRec    // the shard call's access records
	miss    []missRun      // its first-touch runs
	pmem    []pmemRun      // its PMem-resident runs, served together
	reads   []pmem.ReadRec // (slot, key) of those runs: the scattered read's list
	rows    [][]float32    // rows the PMem-resident runs stage their payloads in
	push    []pushRun      // push runs resolved to their entries
	sortBuf []uint64       // (key,pos) packing scratch for sortPosByKey

	// obsTick drives the 1-in-8 latency sampling of Pull. It lives here
	// because the scratch is owned exclusively for the request's duration:
	// no shared counter, no atomics, no races. obsSample mirrors the tick's
	// verdict for this request so the PMem miss path (servePMem) can
	// ride the same sampling decision without re-deriving it.
	obsTick   uint8
	obsSample bool
}

// New creates a PMem-OE engine storing records in the given arena. The
// arena's payload size must match the configuration's per-entry floats.
func New(cfg psengine.Config, arena *pmem.Arena) (*Engine, error) {
	cfg = cfg.WithDefaults()
	if want := pmem.FloatBytes(cfg.EntryFloats()); arena.PayloadBytes() != want {
		return nil, fmt.Errorf("core: arena payload %dB does not match entry size %dB", arena.PayloadBytes(), want)
	}
	nShards := cfg.Shards // WithDefaults normalized it to a power of two
	e := &Engine{
		cfg:     cfg,
		arena:   arena,
		dram:    device.NewTimedDRAM(cfg.Meter),
		maintCh: make(chan maintTask, 64),
		obs:     psengine.NewEngineObs(cfg.Obs),
	}
	// shardIndex multiplies by the golden ratio and keeps the top log2(n)
	// bits. For n == 1 the shift is 64, which Go defines as yielding 0.
	e.shardShift = uint(64 - bits.TrailingZeros(uint(nShards)))
	e.ckptMu.initRank("core.ckptMu", 20)
	e.shards = make([]*shard, nShards)
	base, extra := cfg.CacheEntries/nShards, cfg.CacheEntries%nShards
	for i := range e.shards {
		capi := base
		if i < extra {
			capi++
		}
		e.shards[i] = &shard{
			eng:      e,
			id:       i,
			lru:      cache.NewList[*entry](),
			capacity: capi,
			evictObs: e.obs.ShardEvictions(i),
			rows:     cache.NewPool[[]float32](capi),
		}
		e.shards[i].mu.initRank("core.shard.mu", 10)
	}
	e.completedCkpt.Store(-1)
	e.prevCompleted.Store(-1)
	e.lastEnded.Store(-1)
	e.ckptActive = -1
	e.scratchPool.New = func() any {
		return &opScratch{byShard: make([][]int32, nShards)}
	}
	e.maintWG.Add(1)
	go e.maintainLoop()
	return e, nil
}

// Name implements psengine.Engine.
func (e *Engine) Name() string { return "pmem-oe" }

// Dim implements psengine.Engine.
func (e *Engine) Dim() int { return e.cfg.Dim }

// Config returns the engine configuration (defaults applied).
func (e *Engine) Config() psengine.Config { return e.cfg }

// Arena exposes the underlying PMem arena (used by recovery and tests).
func (e *Engine) Arena() *pmem.Arena { return e.arena }

// verifyFlushes reports whether record flushes must prove themselves
// against the durable image: while a media-fault model is armed on the
// device, unless the config opts out. It is asked at each commit, so an
// engine built before the model was armed verifies from then on. Rot,
// dropped flushes and poison are caught at the flush site and healed by
// rewrite/realloc, so the durable image stays exactly what a fault-free
// run would hold.
func (e *Engine) verifyFlushes() bool {
	return !e.cfg.FlushVerifyDisabled && e.arena.Device().MediaFaultsArmed()
}

// shardIndex maps a key to its shard: Fibonacci hashing keeps the top bits
// well mixed, and the power-of-two shard count makes the map a shift.
func (e *Engine) shardIndex(k uint64) int {
	return int((k * 0x9e3779b97f4a7c15) >> e.shardShift)
}

// shardFor returns the shard owning key k.
func (e *Engine) shardFor(k uint64) *shard { return e.shards[e.shardIndex(k)] }

func (e *Engine) getScratch() *opScratch { return e.scratchPool.Get().(*opScratch) }

func (e *Engine) putScratch(sc *opScratch) {
	for i := range sc.byShard {
		sc.byShard[i] = sc.byShard[i][:0]
	}
	e.scratchPool.Put(sc)
}

// partition splits the positions of keys into sc.byShard sublists. Sublists
// are in batch order here, which sortPosByKey relies on; each shard's call
// sorts its own sublist into key runs. With one shard the shift is 64, so
// every position lands in byShard[0] and Shards=1 reproduces the unsharded
// layout with identical charges.
func (e *Engine) partition(keys []uint64, sc *opScratch) {
	byShard := sc.byShard
	for i, k := range keys {
		sid := e.shardIndex(k)
		byShard[sid] = append(byShard[sid], int32(i)) //oevet:alloc-ok appends into pooled scratch: capacity persists across batches, steady state never grows
	}
}

// Pull implements Algorithm 1: under each shard's shared lock, resolve the
// shard's keys through its DRAM index, copy weights from DRAM or PMem into
// dst, and append the touched entries to the shard's access queue for
// deferred maintenance. The shards run in turn on the caller's goroutine;
// every one with keys runs, and the first error is returned.
//
// oevet:hotpath
func (e *Engine) Pull(batch int64, keys []uint64, dst []float32) error {
	if e.closed.Load() {
		return psengine.ErrClosed
	}
	if err := psengine.CheckBuf(keys, dst, e.cfg.Dim); err != nil {
		return err
	}
	e.cfg.Meter.Charge(simclock.LockSync, psengine.LockCost)

	sc := e.getScratch()
	// Latency recording is sampled 1-in-8: two clock reads cost ~80ns on a
	// server core, which would exceed the obs overhead budget on this
	// sub-microsecond path (DESIGN.md §9). The tick lives in the pooled
	// scratch, so sampling needs no shared counter and stays race-free.
	var obsStart time.Duration
	sc.obsSample = false
	if e.obs.Enabled() {
		if sc.obsTick++; sc.obsTick&7 == 0 {
			obsStart = e.obs.Now()
			sc.obsSample = true
		}
	}
	var err error
	e.partition(keys, sc)
	for sid, idxs := range sc.byShard {
		if len(idxs) == 0 {
			continue
		}
		if serr := e.shards[sid].pull(batch, keys, idxs, dst, sc); err == nil {
			err = serr
		}
	}
	if sc.obsSample {
		e.obs.Pull.Observe(e.obs.Now() - obsStart)
	}
	e.putScratch(sc)
	if err != nil {
		return err
	}
	if e.cfg.PipelineDisabled {
		// Ablation: run maintenance inline on the request path.
		e.inlineMaintain(batch)
	}
	return nil
}

// Push applies gradients with the server-side optimizer. Entries accessed
// in the pull phase of the same batch are already (or are being) promoted
// to DRAM by maintenance; Push waits for that promotion to complete, as
// the paper's pipeline guarantees by construction (maintenance runs during
// the much longer GPU phase).
//
// oevet:hotpath
func (e *Engine) Push(batch int64, keys []uint64, grads []float32) error {
	if e.closed.Load() {
		return psengine.ErrClosed
	}
	if err := psengine.CheckBuf(keys, grads, e.cfg.Dim); err != nil {
		return err
	}
	// Push latency includes the maintenance wait below: that is the latency
	// a worker actually sees, and the optimizer math dominates the clock
	// cost, so every call is recorded (no sampling).
	var obsStart time.Duration
	if e.obs.Enabled() {
		obsStart = e.obs.Now()
	}
	// Ensure promotion finished so updates land in DRAM, never in PMem.
	e.WaitMaintenance()

	e.cfg.Meter.Charge(simclock.LockSync, psengine.LockCost)
	var err error
	sc := e.getScratch()
	e.partition(keys, sc)
	for sid, idxs := range sc.byShard {
		if len(idxs) == 0 {
			continue
		}
		if serr := e.shards[sid].push(batch, keys, idxs, grads, sc); err == nil {
			err = serr
		}
	}
	e.putScratch(sc)
	if obsStart != 0 {
		e.obs.Push.Observe(e.obs.Now() - obsStart)
	}
	return err
}

// readPromote loads an entry's record from PMem into a DRAM row: a
// CRC-verified device read decoded straight into the row, counted in the
// PMemReads stat. Caller holds the entry's stripe (or its shard's exclusive
// lock), and the entry has just been made hot from its cold slot
// (promoteShared, promoteColdLocked), so its slot names its record.
//
// oevet:coldpath a promotion the pull did not stage (push fallback, serve refresh, a re-touch inside one round): the steady-state miss path adopts the staged row and never reaches it
func (s *shard) readPromote(ent *entry) error {
	e := s.eng
	row := s.takeRow()
	if err := e.arena.ReadRowVerified(ent.slot, ent.key, row); err != nil {
		s.rows.Put(row)
		if pmem.IsIntegrity(err) {
			e.obs.CorruptServe.Add(1)
			err = fmt.Errorf("core: promote of key %d: %w", ent.key, err)
		}
		return err
	}
	ent.buf = row
	e.pmemReads.Add(1)
	e.dram.ChargeWrite(4 * e.cfg.EntryFloats())
	e.chargeInlineSerial(device.PMem().ReadCost(e.arena.PayloadBytes()))
	return nil
}

// chargeInlineSerial mirrors a PMem access into the globally-serialized
// lane when maintenance runs inline (pipeline disabled): the exclusive
// shard lock is held across the device access, so every request thread
// waits it out (the Fig. 9 ablation's dominant cost).
func (e *Engine) chargeInlineSerial(d time.Duration) { e.chargeInlineSerialN(d, 1) }

// chargeInlineSerialN is n chargeInlineSerial(d) calls: n ops of d each.
func (e *Engine) chargeInlineSerialN(d time.Duration, n int64) {
	if e.cfg.PipelineDisabled && n > 0 {
		e.cfg.Meter.ChargeN(simclock.GlobalSync, time.Duration(n)*d, n)
	}
}

// Keys returns every key currently stored, in ascending order. Intended
// for inspection and tests; it holds each shard's shared lock in turn.
// (It previously returned keys in map-iteration order — a nondeterminism
// the determinism analyzer now rejects.)
func (e *Engine) Keys() []uint64 {
	out := make([]uint64, 0, e.entries.Load())
	for _, s := range e.shards {
		s.mu.RLock()
		out = s.index.keys(out)
		s.mu.RUnlock()
	}
	slices.Sort(out)
	return out
}

// Stats implements psengine.Engine.
func (e *Engine) Stats() psengine.Stats {
	var cached int64
	for _, s := range e.shards {
		s.mu.RLock()
		cached += int64(s.lru.Len())
		s.mu.RUnlock()
	}
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

// Close stops the background maintainer and returns once no maintenance
// round is running: the maintainer drains what was queued, and a round a
// waiter took off the queue (WaitMaintenance) is waited for too. It does not
// flush dirty cache entries; call RequestCheckpoint + WaitMaintenance first
// for a clean shutdown, or rely on recovery semantics (unflushed data is,
// correctly, lost).
func (e *Engine) Close() error {
	if e.closed.Swap(true) {
		return nil
	}
	e.closeMu.Lock()
	close(e.maintCh)
	e.closeMu.Unlock()
	e.maintWG.Wait()
	e.pending.Wait()
	return nil
}

// optimizerCost is the calibrated virtual CPU cost of applying a gradient
// to one dim-sized entry (~0.5 ns per coordinate of fused multiply-add on a
// modern server core).
func optimizerCost(dim int) time.Duration {
	return time.Duration(dim) * time.Nanosecond / 2
}
