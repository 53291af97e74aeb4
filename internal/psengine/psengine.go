// Package psengine defines the storage-engine contract shared by every
// parameter-server backend in the reproduction: the proposed PMem-OE engine
// (internal/core) and the paper's comparison points DRAM-PS, Ori-Cache and
// PMem-Hash (internal/engines/...).
//
// The batch protocol mirrors synchronous DLRM training (Sec. II-A):
//
//	for each batch n:
//	    Pull(n, keys, dst)        // possibly from many worker threads
//	    EndPullPhase(n)           // all pulls done; GPU compute begins;
//	                              // pipelined engines start maintenance
//	    ... dense forward/backward on workers ...
//	    Push(n, keys, grads)      // gradients back, optimizer applied
//	    EndBatch(n)               // barrier: batch n fully applied
//
// Checkpoints are requested with RequestCheckpoint(n) after EndBatch(n) and
// complete asynchronously (WaitCheckpoints finishes them); CompletedCheckpoint
// reports durable progress.
package psengine

import (
	"errors"
	"math"
	"runtime"
	"time"

	"openembedding/internal/obs"
	"openembedding/internal/optim"
	"openembedding/internal/simclock"
)

// Common engine errors.
var (
	// ErrClosed is returned by operations on a closed engine.
	ErrClosed = errors.New("psengine: engine closed")
	// ErrDimension indicates a buffer whose length does not match keys*dim.
	ErrDimension = errors.New("psengine: buffer length does not match keys*dim")
	// ErrCapacity indicates the engine cannot hold more entries.
	ErrCapacity = errors.New("psengine: entry capacity exceeded")
)

// Initializer fills the initial weights of a new embedding entry.
// It must be deterministic in key so that recovery tests and distributed
// replicas agree on never-checkpointed entries.
type Initializer func(key uint64, weights []float32)

// XavierInit returns a deterministic uniform(-bound, bound) initializer with
// bound = 1/sqrt(dim), seeded per key (splitmix64 over key and coordinate).
func XavierInit(dim int) Initializer {
	bound := 1.0 / math.Sqrt(float64(dim))
	return func(key uint64, weights []float32) {
		x := key ^ 0x9e3779b97f4a7c15
		for i := range weights {
			x += 0x9e3779b97f4a7c15
			z := x
			z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
			z = (z ^ (z >> 27)) * 0x94d049bb133111eb
			z ^= z >> 31
			u := float64(z>>11) / float64(1<<53) // [0,1)
			weights[i] = float32((2*u - 1) * bound)
		}
	}
}

// ZeroInit fills new entries with zeros.
func ZeroInit(key uint64, weights []float32) {
	for i := range weights {
		weights[i] = 0
	}
}

// Config configures an engine. Zero values get sensible defaults from
// (*Config).WithDefaults.
type Config struct {
	// Dim is the embedding dimension (floats per entry).
	Dim int
	// Optimizer is applied server-side on Push.
	Optimizer optim.Optimizer
	// Initializer fills new entries on first touch.
	Initializer Initializer
	// Capacity is the maximum number of distinct entries (PMem arena slots
	// for PMem-backed engines, a hard bound for DRAM engines).
	Capacity int
	// CacheEntries bounds the DRAM cache for hybrid engines; ignored by
	// DRAM-PS and PMem-Hash.
	CacheEntries int
	// Meter receives virtual-time charges for every device access the
	// engine performs. Nil disables accounting.
	Meter *simclock.Meter
	// Obs receives wall-clock operational metrics (latency histograms,
	// byte counters, queue depths — see NewEngineObs for the canonical
	// set) and per-batch spans (maintenance drains, checkpoint
	// finalization). Nil disables recording at the cost of a nil check;
	// the deterministic simulated experiments leave it nil.
	Obs *obs.Registry
	// Shards is the number of independent key-space shards for engines that
	// partition their index, cache and maintenance (PMem-OE). Each shard has
	// its own lock, so request threads on different shards never contend and
	// maintenance parallelizes. Values are rounded up to a power of two;
	// 0 defaults to GOMAXPROCS rounded up to a power of two (capped at 256).
	// Shards=1 reproduces the unsharded engine exactly: deterministic
	// simulated-time experiments pin it to 1 so results are host-independent.
	Shards int
	// PipelineDisabled runs cache maintenance inline on the request path
	// instead of behind the GPU phase. Used by the Fig. 9 ablation.
	PipelineDisabled bool
	// CacheDisabled bypasses the DRAM cache entirely (every access goes to
	// PMem). Used by the Fig. 9 ablation.
	CacheDisabled bool
	// RetainCheckpoints is how many completed checkpoints stay recoverable
	// on PMem. 1 (the default) keeps only the latest. 2 also retains the
	// previous checkpoint's records and persists its ID, which is what a
	// fault-tolerant cluster needs: coordinated replay may roll a node back
	// to a checkpoint its peers have already superseded (DESIGN.md §10).
	RetainCheckpoints int
	// FlushVerifyDisabled turns off the durable read-back verification that
	// PMem-backed engines perform after each record flush when a media-fault
	// model is armed. With verification off, injected media faults land on
	// the image and must be caught later by a scrub or recovery — the
	// configuration the scrub soak uses to exercise detection+repair.
	FlushVerifyDisabled bool
}

// ScrubReport summarizes one integrity-scrub pass over a PMem-backed
// engine (or, aggregated, over a cluster).
type ScrubReport struct {
	// Scanned counts persisted records whose checksum was verified.
	Scanned int64
	// Corrupt counts records that failed verification (bit-rot, lost
	// flushes, poisoned media).
	Corrupt int64
	// Repaired counts corrupt records rewritten in place from the intact
	// DRAM-cached copy — fully transparent healing.
	Repaired int64
	// Restored counts corrupt records replaced by an older retained record
	// at or below the completed checkpoint; the node must be rolled back
	// and replayed (its epoch is fenced) for training to stay exact.
	Restored int64
	// Fenced counts keys with no recoverable record at all: the key is
	// dropped and reborn deterministically on first touch after replay.
	Fenced int64
	// Quarantined counts arena slots permanently pulled from circulation.
	Quarantined int64
}

// Add accumulates o into r.
func (r *ScrubReport) Add(o ScrubReport) {
	r.Scanned += o.Scanned
	r.Corrupt += o.Corrupt
	r.Repaired += o.Repaired
	r.Restored += o.Restored
	r.Fenced += o.Fenced
	r.Quarantined += o.Quarantined
}

// MigEntry is one entry of a live-resharding move (DESIGN.md §15), as the
// engine exports and adopts it and as the wire carries it: the key, the
// data version of the copied state (the batch whose push it reflects), and
// the full DRAM image — weights followed by optimizer state, EntryFloats
// floats.
type MigEntry struct {
	Key     uint64
	Version int64
	Data    []float32
}

// WithDefaults returns a copy of c with zero fields defaulted.
func (c Config) WithDefaults() Config {
	if c.Dim == 0 {
		c.Dim = 64
	}
	if c.Optimizer == nil {
		c.Optimizer = optim.NewAdaGrad(0.05)
	}
	if c.Initializer == nil {
		c.Initializer = XavierInit(c.Dim)
	}
	if c.Capacity == 0 {
		c.Capacity = 1 << 20
	}
	if c.CacheEntries == 0 {
		c.CacheEntries = c.Capacity / 8
	}
	if c.Shards == 0 {
		c.Shards = runtime.GOMAXPROCS(0)
	}
	c.Shards = normalizeShards(c.Shards)
	if c.RetainCheckpoints == 0 {
		c.RetainCheckpoints = 1
	}
	return c
}

// maxShards bounds the shard count: beyond this, per-shard fixed overhead
// (maps, lists, stripe arrays) outweighs any contention win.
const maxShards = 256

// normalizeShards rounds n up to a power of two in [1, maxShards] so the
// shard-of-key computation stays a mask.
func normalizeShards(n int) int {
	if n <= 1 {
		return 1
	}
	if n > maxShards {
		return maxShards
	}
	p := 1
	for p < n {
		p <<= 1
	}
	return p
}

// EntryFloats returns the per-entry float count: weights plus optimizer
// state.
func (c Config) EntryFloats() int { return c.Dim + c.Optimizer.StateFloats(c.Dim) }

// ArenaSlotsFactor sizes a PMem arena as Capacity * 3 records: the headroom
// holds superseded versions retained for checkpoints.
const ArenaSlotsFactor = 3

// Stats is a snapshot of engine counters.
type Stats struct {
	// Entries is the number of distinct embedding entries stored.
	Entries int64
	// CachedEntries is the number of entries currently in the DRAM cache.
	CachedEntries int64
	// Hits and Misses count pull lookups served from DRAM vs PMem.
	Hits, Misses int64
	// PMemReads/PMemWrites count record-granularity PMem accesses.
	PMemReads, PMemWrites int64
	// Evictions counts cache evictions.
	Evictions int64
	// CheckpointsDone counts completed checkpoints.
	CheckpointsDone int64
}

// MissRate returns Misses / (Hits + Misses), or 0 with no lookups.
func (s Stats) MissRate() float64 {
	total := s.Hits + s.Misses
	if total == 0 {
		return 0
	}
	return float64(s.Misses) / float64(total)
}

// Engine is a parameter-server storage backend for one embedding table
// shard. Pull and Push may be called concurrently from many request
// threads; the phase-boundary calls (EndPullPhase, EndBatch) come from a
// single coordinator. The slices handed to Pull and Push belong to the
// caller and are only on loan for the call — the RPC server passes its
// connection's scratch, which the next request overwrites — so an engine
// keeps neither keys nor buffers past its return.
type Engine interface {
	// Name identifies the engine configuration ("pmem-oe", "dram-ps", ...).
	Name() string
	// Dim returns the embedding dimension.
	Dim() int
	// Pull copies the weights for keys into dst (len(keys)*Dim floats),
	// creating entries on first touch. batch is the current batch ID.
	Pull(batch int64, keys []uint64, dst []float32) error
	// EndPullPhase signals that every pull of the batch has been issued;
	// pipelined engines start cache maintenance here (Fig. 5).
	EndPullPhase(batch int64)
	// WaitMaintenance blocks until deferred maintenance (cache replacement,
	// flushes, checkpoint progress) for all signalled batches has drained.
	// Inline engines return immediately.
	WaitMaintenance()
	// Push applies the optimizer to keys given grads (len(keys)*Dim floats).
	Push(batch int64, keys []uint64, grads []float32) error
	// EndBatch marks batch n complete: after it returns the engine is
	// consistent for checkpoint requests at n.
	EndBatch(batch int64) error
	// RequestCheckpoint asks for a checkpoint capturing state as of the
	// given completed batch. It returns immediately; completion is
	// asynchronous (observed via CompletedCheckpoint).
	RequestCheckpoint(batch int64) error
	// WaitCheckpoints returns once every checkpoint requested before the
	// call is durable, or with the error that means it never will be.
	WaitCheckpoints() error
	// CompletedCheckpoint returns the newest durable checkpoint batch ID,
	// or -1 when none has completed.
	CompletedCheckpoint() int64
	// Stats returns a snapshot of the engine counters.
	Stats() Stats
	// Close releases resources (maintainer threads, files).
	Close() error
}

// CheckBuf validates that buf holds exactly len(keys)*dim floats.
func CheckBuf(keys []uint64, buf []float32, dim int) error {
	if len(buf) != len(keys)*dim {
		return ErrDimension
	}
	return nil
}

// GatherRows is the shared per-key pull loop of the baseline engines
// (DRAM-PS, PMem-Hash, Ori-Cache): it validates dst against keys×dim,
// times the whole gather through eobs (sampling aside — baselines record
// every pull, keeping their Fig. 2 latency distributions complete), and
// calls row once per key with that key's dim-sized slice of dst. The row
// callback owns all engine-specific work — lookup, device reads, meter
// charges, counters — so the baselines stay comparable: they differ only
// in what a row costs, never in how a batch is walked. It returns the
// gather's wall-clock duration (zero when eobs is disabled) so engines
// with extra histograms (PMem-Hash's miss-service time) can reuse the
// measurement instead of reading the clock again.
func GatherRows(eobs *EngineObs, keys []uint64, dst []float32, dim int, row func(k uint64, out []float32) error) (time.Duration, error) {
	if err := CheckBuf(keys, dst, dim); err != nil {
		return 0, err
	}
	var start time.Duration
	if eobs.Enabled() {
		start = eobs.Now()
	}
	for i, k := range keys {
		if err := row(k, dst[i*dim:(i+1)*dim]); err != nil {
			return 0, err
		}
	}
	var d time.Duration
	if eobs.Enabled() {
		d = eobs.Now() - start
		eobs.Pull.Observe(d)
	}
	return d, nil
}

// LockCost is the calibrated virtual cost of one uncontended lock
// acquisition/release pair on the request path; engines charge it under
// simclock.LockSync so the simulator's contention model can scale it.
const LockCost = 20 * time.Nanosecond

// IndexProbeCost is the calibrated virtual CPU cost of one hash-index probe
// (hashing plus bucket walk), charged under simclock.Compute.
const IndexProbeCost = 30 * time.Nanosecond
