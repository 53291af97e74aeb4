// Package sim drives the simulated cluster. Its outputs must be
// bit-reproducible across runs (ROADMAP north star); the marker below puts
// the whole package under the determinism analyzer (internal/analysis).
//
//oevet:deterministic-package
package sim

import (
	"fmt"
	"time"

	"openembedding/internal/device"
	"openembedding/internal/engines"
	"openembedding/internal/optim"
	"openembedding/internal/pmem"
	"openembedding/internal/psengine"
	"openembedding/internal/simclock"
	"openembedding/internal/workload"
)

// CheckpointKind selects the checkpointing scheme (Table IV).
type CheckpointKind int

// Checkpoint kinds.
const (
	// CkptNone runs without checkpoints.
	CkptNone CheckpointKind = iota
	// CkptProposed is the paper's scheme: batch-aware sparse checkpoint
	// co-designed with cache replacement, plus TensorFlow's dense dump.
	CkptProposed
	// CkptSparseOnly is the proposed scheme without the dense dump.
	CkptSparseOnly
	// CkptIncremental is the CheckFreq-style baseline: synchronously dump
	// the entries dirtied since the last checkpoint to the checkpoint
	// device, plus the dense dump.
	CkptIncremental
)

func (k CheckpointKind) String() string {
	switch k {
	case CkptNone:
		return "none"
	case CkptProposed:
		return "proposed"
	case CkptSparseOnly:
		return "sparse-only"
	case CkptIncremental:
		return "incremental"
	default:
		return fmt.Sprintf("ckpt(%d)", int(k))
	}
}

// Config is one simulated training configuration.
type Config struct {
	// Engine: "dram-ps", "pmem-oe", "ori-cache", "pmem-hash" or "tf".
	Engine string
	// GPUs is the number of synchronous workers.
	GPUs int
	// Dim is the embedding dimension (default 64, the workload's).
	Dim int
	// CacheBytes is the real-scale DRAM cache for hybrid engines
	// (default 2 GB, the paper's default after Fig. 8).
	CacheBytes int64
	// Sampler builds each worker's key sampler (default Table II skew).
	Sampler func(keys int, seed int64) workload.KeySampler
	// Checkpoint selects the scheme. CheckpointIntervalMinutes is the
	// paper-scale wall-clock period (10-40 min in Fig. 12), mapped to
	// simulated batches via BatchesPerMinute; CheckpointEveryBatches can
	// set the simulated period directly instead.
	Checkpoint                CheckpointKind
	CheckpointIntervalMinutes float64
	CheckpointEveryBatches    int
	// PipelineDisabled / CacheDisabled are the Fig. 9 ablations (pmem-oe).
	PipelineDisabled bool
	CacheDisabled    bool
	// Keys overrides SimKeys; Draws overrides DrawsPerWorkerBatch;
	// RealDraws overrides RealDrawsPerWorkerBatch (Fig. 15's Criteo
	// batches reference far more unique keys than the production trace's);
	// WarmupBatches/MeasureBatches override the defaults (8/40).
	Keys, Draws, RealDraws        int
	WarmupBatches, MeasureBatches int
	// Seed drives the workload.
	Seed int64
	// RecordTrace records every request in Result.Trace (Fig. 2).
	RecordTrace bool
}

func (c Config) withDefaults() Config {
	if c.GPUs == 0 {
		c.GPUs = 4
	}
	if c.Dim == 0 {
		c.Dim = 64
	}
	if c.CacheBytes == 0 {
		c.CacheBytes = 2 << 30
	}
	if c.Sampler == nil {
		c.Sampler = func(keys int, seed int64) workload.KeySampler {
			return workload.NewTableIISkew(keys, seed)
		}
	}
	if c.Keys == 0 {
		c.Keys = SimKeys
	}
	if c.Draws == 0 {
		c.Draws = DrawsPerWorkerBatch
	}
	if c.RealDraws == 0 {
		c.RealDraws = RealDrawsPerWorkerBatch
	}
	if c.CheckpointIntervalMinutes > 0 && c.CheckpointEveryBatches == 0 {
		c.CheckpointEveryBatches = int(c.CheckpointIntervalMinutes * BatchesPerMinute)
	}
	if c.WarmupBatches == 0 {
		c.WarmupBatches = 8
	}
	if c.MeasureBatches == 0 {
		c.MeasureBatches = 40
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	return c
}

// PhaseBreakdown is the average per-batch time by phase.
type PhaseBreakdown struct {
	Pull, GPU, Maint, Push, Ckpt time.Duration
}

// Result summarizes one simulated configuration.
type Result struct {
	Config   Config
	AvgBatch time.Duration
	Epoch    time.Duration
	MissRate float64
	Phases   PhaseBreakdown
	Ckpts    int
	Stats    psengine.Stats
	Trace    *Trace
	// EntriesBytes is the simulated store's entry payload size (scaled).
	EntryBytes int
}

// Run simulates one configuration: it drives the real engine batch by
// batch, converts each phase's charged demand into time via the resource
// model, and extrapolates one epoch.
func Run(cfg Config) (Result, error) {
	cfg = cfg.withDefaults()
	meter := simclock.NewMeter()
	store := psengine.Config{
		Dim:              cfg.Dim,
		Optimizer:        optim.NewAdaGrad(0.05),
		Capacity:         cfg.Keys,
		CacheEntries:     cacheEntries(cfg),
		Meter:            meter,
		PipelineDisabled: cfg.PipelineDisabled,
		CacheDisabled:    cfg.CacheDisabled,
		// One shard, always: the default derives from GOMAXPROCS, and the
		// simulated-time tables must not depend on the host's core count.
		// Shards=1 reproduces the unsharded engine exactly.
		Shards: 1,
	}.WithDefaults()

	eng, closeEngine, err := buildEngine(cfg, store)
	if err != nil {
		return Result{}, err
	}
	defer closeEngine()

	res := Result{Config: cfg, EntryBytes: pmem.FloatBytes(store.EntryFloats()) + 24}
	r := resourcesFor(cfg.Engine, cfg.GPUs)
	scaleUp := float64(cfg.RealDraws) / float64(cfg.Draws)
	if cfg.RecordTrace {
		res.Trace = &Trace{}
	}

	// Per-worker samplers and a reusable gradient buffer.
	samplers := make([]workload.KeySampler, cfg.GPUs)
	for w := range samplers {
		samplers[w] = cfg.Sampler(cfg.Keys, cfg.Seed+int64(w))
	}
	grads := make([]float32, cfg.Draws*cfg.Dim)
	for i := range grads {
		grads[i] = 0.01
	}
	pullBuf := make([]float32, cfg.Draws*cfg.Dim)

	// Prefill: create every entry once (the paper measures steady-state
	// epochs; first-epoch creation is not part of any figure).
	batch := int64(0)
	if err := prefill(eng, cfg.Keys, &batch); err != nil {
		return Result{}, err
	}

	// Warmup shapes the cache to the skew.
	var carryMaint time.Duration // deferred write-back riding the next GPU phase
	runBatches := func(n int, measure bool) error {
		clock := time.Duration(0)
		statsBefore := eng.Stats()
		for i := 0; i < n; i++ {
			var keysByWorker [][]uint64
			var totalKeys int
			for w := 0; w < cfg.GPUs; w++ {
				keys := workload.Batch(samplers[w], cfg.Draws)
				keysByWorker = append(keysByWorker, keys)
				totalKeys += len(keys)
			}

			// Pull phase: the synchronous burst.
			before := meter.Snapshot()
			for w, keys := range keysByWorker {
				if res.Trace != nil && measure {
					res.Trace.record(clock, false, len(keys))
				}
				if err := eng.Pull(batch, keys, pullBuf[:len(keys)*cfg.Dim]); err != nil {
					return fmt.Errorf("sim: pull (worker %d): %w", w, err)
				}
			}
			pullD := meter.Snapshot().Sub(before)
			pullT := PhaseTime(pullD, r, scaleUp) + phaseNet(cfg, totalKeys, true) + requestCPU(totalKeys, r, scaleUp)
			if cfg.Engine == "tf" {
				pullT += tfEmbeddingTime(cfg, totalKeys)
			}

			// Maintenance phase (overlapped with dense compute), plus any
			// batch-boundary write-back carried over from the previous
			// batch (it drains during this batch's GPU phase).
			before = meter.Snapshot()
			eng.EndPullPhase(batch)
			eng.WaitMaintenance()
			maintD := meter.Snapshot().Sub(before)
			maintT := PhaseTime(maintD, r, scaleUp) + carryMaint
			carryMaint = 0

			// Push phase.
			before = meter.Snapshot()
			pushClock := clock + pullT + maxDur(GPUBatchTime, maintT)
			for w, keys := range keysByWorker {
				if res.Trace != nil && measure {
					res.Trace.record(pushClock, true, len(keys))
				}
				if err := eng.Push(batch, keys, grads[:len(keys)*cfg.Dim]); err != nil {
					return fmt.Errorf("sim: push (worker %d): %w", w, err)
				}
			}
			pushD := meter.Snapshot().Sub(before)
			pushT := PhaseTime(pushD, r, scaleUp) + phaseNet(cfg, totalKeys, false) + requestCPU(totalKeys, r, scaleUp)
			if cfg.Engine == "tf" {
				pushT += tfExchangeTime(cfg, totalKeys)
			}

			// Batch seal: for pipelined engines any write-back it performs
			// (e.g. the cache-disabled staging flush) overlaps the next
			// batch's GPU phase; with the pipeline disabled it stalls the
			// request path.
			before = meter.Snapshot()
			if err := eng.EndBatch(batch); err != nil {
				return fmt.Errorf("sim: end batch: %w", err)
			}
			endT := PhaseTime(meter.Snapshot().Sub(before), r, scaleUp)
			if cfg.PipelineDisabled {
				pushT += endT
			} else {
				carryMaint = endT
			}

			// Checkpoint trigger at the period boundary.
			var ckptT time.Duration
			if cfg.Checkpoint != CkptNone && cfg.CheckpointEveryBatches > 0 &&
				(i+1)%cfg.CheckpointEveryBatches == 0 {
				before = meter.Snapshot()
				var err error
				ckptT, err = triggerCheckpoint(cfg, eng, batch)
				if err != nil {
					return err
				}
				ckptT += PhaseTime(meter.Snapshot().Sub(before), r, scaleUp)
				if measure {
					res.Ckpts++
				}
			}

			syncT := SyncOverheadPerGPU * time.Duration(cfg.GPUs)
			batchT := pullT + maxDur(GPUBatchTime, maintT) + pushT + syncT + ckptT
			clock += batchT
			if measure {
				res.Phases.Pull += pullT
				res.Phases.GPU += GPUBatchTime
				res.Phases.Maint += maintT
				res.Phases.Push += pushT
				res.Phases.Ckpt += ckptT
				res.AvgBatch += batchT
			}
			batch++
		}
		if measure {
			statsAfter := eng.Stats()
			lookups := (statsAfter.Hits - statsBefore.Hits) + (statsAfter.Misses - statsBefore.Misses)
			if lookups > 0 {
				res.MissRate = float64(statsAfter.Misses-statsBefore.Misses) / float64(lookups)
			}
			res.Stats = statsAfter
		}
		return nil
	}

	if err := runBatches(cfg.WarmupBatches, false); err != nil {
		return Result{}, err
	}
	if err := runBatches(cfg.MeasureBatches, true); err != nil {
		return Result{}, err
	}

	n := time.Duration(cfg.MeasureBatches)
	res.AvgBatch /= n
	res.Phases.Pull /= n
	res.Phases.GPU /= n
	res.Phases.Maint /= n
	res.Phases.Push /= n
	res.Phases.Ckpt /= n
	res.Epoch = res.AvgBatch * time.Duration(StepsPerEpoch(cfg.GPUs))
	return res, nil
}

// cacheEntries maps the configured real cache bytes to simulated entries.
// A given byte budget holds more entries at smaller embedding dimensions
// (Fig. 15's 128 MB cache is 6.4% of the dim-16 table but only 1.6% of the
// dim-64 one), so the mapping scales by entry size relative to the
// production dim-64 entry.
func cacheEntries(cfg Config) int {
	entryBytes := float64((cfg.Dim+cfg.Dim)*4 + 24)
	n := int(float64(CacheEntriesForBytes(cfg.CacheBytes)) * float64(EntryBytesReal) / entryBytes)
	if n < 4 {
		n = 4
	}
	return n
}

// buildEngine constructs the engine under test and the step that closes it
// and then its device. "tf" is the DRAM store under the TensorFlow cost
// profile; the PMem-OE arena gets the headroom a PS node gives it, the
// baselines' the 2x their in-place updates need.
func buildEngine(cfg Config, store psengine.Config) (psengine.Engine, func(), error) {
	kind := cfg.Engine
	if kind == "tf" {
		kind = "dram-ps"
	}
	var arena *pmem.Arena
	closeDevice := func() {}
	if engines.UsesPMem(kind) {
		slots := cfg.Keys * 2
		if kind == "pmem-oe" {
			slots = cfg.Keys * psengine.ArenaSlotsFactor
		}
		payload := pmem.FloatBytes(store.EntryFloats())
		dev := pmem.NewDevice(pmem.ArenaLayout(payload, slots), device.NewTimedPMem(store.Meter))
		closeDevice = func() { dev.Close() }
		var err error
		if arena, err = pmem.NewArena(dev, payload, slots); err != nil {
			closeDevice()
			return nil, nil, err
		}
	}
	eng, err := engines.New(kind, store, arena, "")
	if err != nil {
		closeDevice()
		return nil, nil, err
	}
	return eng, func() { eng.Close(); closeDevice() }, nil
}

// prefill touches every key once so measurement sees a fully built table.
func prefill(eng psengine.Engine, keys int, batch *int64) error {
	const chunk = 8192
	buf := make([]float32, chunk*eng.Dim())
	ids := make([]uint64, 0, chunk)
	for lo := 0; lo < keys; lo += chunk {
		hi := lo + chunk
		if hi > keys {
			hi = keys
		}
		ids = ids[:0]
		for k := lo; k < hi; k++ {
			ids = append(ids, uint64(k))
		}
		if err := eng.Pull(*batch, ids, buf[:len(ids)*eng.Dim()]); err != nil {
			return fmt.Errorf("sim: prefill: %w", err)
		}
		eng.EndPullPhase(*batch)
		eng.WaitMaintenance()
		if err := eng.EndBatch(*batch); err != nil {
			return fmt.Errorf("sim: prefill: %w", err)
		}
		*batch++
	}
	return nil
}

// phaseNet is the wire time of one pull or push phase. TF keeps embeddings
// worker-local (its transfer costs live in tfEmbeddingTime/tfExchangeTime).
func phaseNet(cfg Config, totalKeys int, isPull bool) time.Duration {
	if cfg.Engine == "tf" {
		return 0
	}
	scaleUp := float64(cfg.RealDraws) / float64(cfg.Draws)
	bytesPerKey := int64(cfg.Dim*4 + 8)
	total := int64(float64(int64(totalKeys)*bytesPerKey) * scaleUp)
	return netTime(total, cfg.GPUs, resourcesFor(cfg.Engine, cfg.GPUs).Nodes)
}

// requestCPU is the PS-side request handling (decode, memcpy, response
// assembly) beyond the storage engine's own charges, spread over the node
// thread pools. It is the component whose linear growth in total keys makes
// DRAM-PS's scaling sub-linear (Fig. 7's 40%/65% reductions).
func requestCPU(totalKeys int, r Resources, scaleUp float64) time.Duration {
	d := time.Duration(float64(totalKeys)*scaleUp) * RequestCPUPerKey
	return d / time.Duration(r.Nodes*r.ThreadsPerNode)
}

// tfEmbeddingTime models TensorFlow's embedding layer: every unique key's
// gather goes through the framework's op dispatch on one coordinating
// host — serialized across workers, which is why TF degrades as GPUs are
// added even on one machine (Fig. 15).
func tfEmbeddingTime(cfg Config, totalKeys int) time.Duration {
	scaleUp := float64(cfg.RealDraws) / float64(cfg.Draws)
	return time.Duration(float64(totalKeys)*scaleUp) * TFPerKeyDispatch
}

// tfExchangeTime models the cross-GPU exchange of sparse gradients in the
// mirrored setup: each key's dim-sized gradient crosses the inter-GPU
// fabric (G-1)/G times, so the cost grows with both worker count and
// embedding dimension — the reason PMem-OE's advantage doubles from dim 16
// to dim 64.
func tfExchangeTime(cfg Config, totalKeys int) time.Duration {
	if cfg.GPUs <= 1 {
		return 0
	}
	scaleUp := float64(cfg.RealDraws) / float64(cfg.Draws)
	bytes := float64(totalKeys) * scaleUp * float64(cfg.Dim) * 8 // grad + indices
	frac := float64(cfg.GPUs-1) / float64(cfg.GPUs)
	return time.Duration(bytes * frac / TFExchangeBW * float64(time.Second))
}

// triggerCheckpoint performs the configured checkpoint action at a period
// boundary and returns its synchronous pause.
//
// Per-checkpoint costs are computed at production scale — the dirty set a
// real 10-40 minute interval accumulates, drained at the effective
// interference-limited rate — and rescaled by simInterval/realInterval so
// that the overhead *fraction* of an interval (what Figs. 12-13 plot) is
// preserved at simulation scale.
func triggerCheckpoint(cfg Config, eng psengine.Engine, batch int64) (time.Duration, error) {
	simInterval := cfg.CheckpointEveryBatches
	realInterval := simInterval
	if cfg.CheckpointIntervalMinutes > 0 {
		realInterval = int(cfg.CheckpointIntervalMinutes * 60 * RealBatchesPerSecond)
	}
	intervalScale := float64(simInterval) / float64(realInterval)
	dense := time.Duration(float64(DenseCheckpointPause) * intervalScale)

	switch cfg.Checkpoint {
	case CkptProposed, CkptSparseOnly:
		// Alg. 2: enqueue only; flushes ride on later cache maintenance
		// (their demand shows up in the maintenance snapshots).
		if err := eng.RequestCheckpoint(batch); err != nil {
			return 0, fmt.Errorf("sim: checkpoint: %w", err)
		}
		if cfg.Checkpoint == CkptProposed {
			return dense, nil
		}
		return 0, nil
	case CkptIncremental:
		// The baseline synchronously dumps every entry dirtied since the
		// previous checkpoint. The dirty-set size over the real interval
		// comes from the expected-unique analysis of the Table II skew.
		draws := float64(realInterval) * float64(cfg.GPUs) * RealDrawsPerWorkerBatch
		dirtyEntries := ExpectedUniqueTableII(draws, float64(RealEntries))
		bytes := dirtyEntries * EntryBytesReal
		bw := IncrementalDrainPMemBW
		if cfg.Engine == "dram-ps" || cfg.Engine == "tf" {
			bw = IncrementalDrainDRAMBW
		}
		pauseReal := time.Duration(bytes / bw * float64(time.Second))
		return time.Duration(float64(pauseReal)*intervalScale) + dense, nil
	default:
		return 0, nil
	}
}
