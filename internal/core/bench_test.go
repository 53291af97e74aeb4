package core

import (
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"openembedding/internal/device"
	"openembedding/internal/obs"
	"openembedding/internal/optim"
	"openembedding/internal/pmem"
	"openembedding/internal/psengine"
	"openembedding/internal/workload"
)

const (
	benchDim      = 16
	benchKeySpace = 1 << 14
	benchBatchLen = 64
)

// newBenchEngine builds an engine whose DRAM cache covers the whole
// benchmark key space with headroom — a cache sized exactly to the key
// space evicts a tail during warm-up, which the benchmarks would then keep
// re-reading from PMem (the steady state under measurement is lock and
// index contention, not miss service) — and pre-populates every key.
func newBenchEngine(b *testing.B, shards int) *Engine {
	return newBenchEngineObs(b, shards, nil)
}

func newBenchEngineObs(b *testing.B, shards int, reg *obs.Registry) *Engine {
	b.Helper()
	cfg := psengine.Config{
		Dim:          benchDim,
		Optimizer:    optim.NewSGD(0.1),
		Capacity:     1 << 16,
		CacheEntries: 2 * benchKeySpace,
		Shards:       shards,
		Obs:          reg,
		// Meter left nil: virtual-time charges are no-ops, so the numbers
		// measure the real synchronization cost.
	}.WithDefaults()
	eng := newArenaEngine(b, cfg, cfg.Capacity*4)
	keys := make([]uint64, benchKeySpace)
	for i := range keys {
		keys[i] = uint64(i)
	}
	dst := make([]float32, benchKeySpace*benchDim)
	if err := eng.Pull(0, keys, dst); err != nil {
		b.Fatal(err)
	}
	eng.EndPullPhase(0)
	eng.WaitMaintenance()
	if err := eng.EndBatch(0); err != nil {
		b.Fatal(err)
	}
	return eng
}

// newArenaEngine builds an engine for cfg (WithDefaults applied) over a
// fresh arena of the given slot count, both closed when the benchmark ends.
// The device charges no meter.
func newArenaEngine(b *testing.B, cfg psengine.Config, slots int) *Engine {
	b.Helper()
	payload := pmem.FloatBytes(cfg.EntryFloats())
	dev := pmem.NewDevice(pmem.ArenaLayout(payload, slots), device.NewTimedPMem(nil))
	b.Cleanup(func() { dev.Close() })
	arena, err := pmem.NewArena(dev, payload, slots)
	if err != nil {
		b.Fatal(err)
	}
	eng, err := New(cfg, arena)
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { eng.Close() })
	return eng
}

// benchBatches pre-generates Zipfian pull batches (Table II skew, the
// paper's workload shape) so the sampler does not run inside the timed
// loop.
func benchBatches(n int) [][]uint64 {
	s := workload.NewTableIISkew(benchKeySpace, 42)
	out := make([][]uint64, n)
	for i := range out {
		out[i] = workload.Batch(s, benchBatchLen)
	}
	return out
}

// drainAccessQueues empties the shards' access queues directly and hands
// each drained buffer back, as a maintenance round does. The benchmarks
// issue pulls outside the batch protocol (no EndPullPhase), so without this
// the queues would grow unboundedly; draining through the protocol instead
// would time maintenance, not the pull path.
func drainAccessQueues(e *Engine) {
	for _, s := range e.shards {
		s.accessQ.Recycle(s.accessQ.Drain())
	}
}

// BenchmarkEnginePullParallel measures concurrent hot-path pulls (all keys
// DRAM-resident) at 1 shard — the pre-sharding engine layout — versus 8.
// Run with -cpu to set the worker count; shard scaling only shows on
// multi-core hosts.
func BenchmarkEnginePullParallel(b *testing.B) {
	for _, shards := range []int{1, 8} {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			benchPullParallel(b, shards)
		})
	}
}

// benchPullParallel is BenchmarkEnginePullParallel's concurrent DRAM-hit
// pull workload.
func benchPullParallel(b *testing.B, shards int) {
	e := newBenchEngine(b, shards)
	batches := benchBatches(256)
	var worker atomic.Int64
	b.ReportAllocs()
	b.SetBytes(benchBatchLen * benchDim * 4)
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		i := int(worker.Add(1)) * 31 // de-phase workers' batch streams
		dst := make([]float32, benchBatchLen*benchDim)
		n := 0
		for pb.Next() {
			keys := batches[i%len(batches)]
			i++
			if err := e.Pull(1, keys, dst[:len(keys)*benchDim]); err != nil {
				b.Error(err)
				return
			}
			if n++; n%256 == 0 {
				drainAccessQueues(e)
			}
		}
	})
	b.StopTimer()
	drainAccessQueues(e)
}

// BenchmarkEnginePullObs measures the observability overhead on the hottest
// path: identical single-threaded pull workloads with obs disabled (nil
// registry: nil-check-only instrumentation) and enabled (sampled latency
// recording plus atomic counters). The acceptance budget for "on" vs "off"
// is <5%; the obs-enabled variant relies on the 1-in-8 pull sampling to
// amortize the ~40ns clock reads.
func BenchmarkEnginePullObs(b *testing.B) {
	for _, mode := range []string{"off", "on"} {
		b.Run(mode, func(b *testing.B) {
			var reg *obs.Registry
			if mode == "on" {
				reg = obs.NewRegistry()
			}
			benchPullSingle(b, reg)
		})
	}
}

// benchPullSingle is BenchmarkEnginePullObs's single-threaded DRAM-hit
// pull workload.
func benchPullSingle(b *testing.B, reg *obs.Registry) {
	e := newBenchEngineObs(b, 8, reg)
	batches := benchBatches(256)
	dst := make([]float32, benchBatchLen*benchDim)
	b.ReportAllocs()
	b.SetBytes(benchBatchLen * benchDim * 4)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		keys := batches[i%len(batches)]
		if err := e.Pull(1, keys, dst[:len(keys)*benchDim]); err != nil {
			b.Fatal(err)
		}
		if (i+1)%256 == 0 {
			drainAccessQueues(e)
		}
	}
	b.StopTimer()
	drainAccessQueues(e)
}

// BenchmarkSortPosByKey isolates the run sort — the fixed cost the batched
// hot path pays per request to earn dedup and run-grouped locking — in
// three shapes: one Zipfian batch of 64 (zipf64); one shard's share of a
// train-tcp-fit pull (fit870: 870 distinct Criteo keys at scale 0.01, every
// third of a deduplicated 512-sample batch's, so the positions ascend with
// gaps, as a partitioned sublist's do); and one engine-local-cold loader's
// batch (cold2048: 2 048 uniform draws over 2^18, deduplicated).
func BenchmarkSortPosByKey(b *testing.B) {
	// Each batch is a key list and the ascending positions that select
	// the sublist to sort.
	type batch struct {
		keys []uint64
		pos  []int32
	}
	ascending := func(n, stride int) []int32 {
		pos := make([]int32, n)
		for i := range pos {
			pos[i] = int32(i * stride)
		}
		return pos
	}
	var zipf, fit, cold []batch
	for _, keys := range benchBatches(256) {
		zipf = append(zipf, batch{keys, ascending(len(keys), 1)})
	}
	criteo := workload.NewCriteo(workload.CriteoConfig{Scale: 0.01, Seed: 1})
	for i := 0; i < 16; i++ {
		fit = append(fit, batch{workload.UniqueKeys(criteo.NextBatch(512)), ascending(870, 3)})
		keys := workload.Batch(workload.NewUniformKeys(1<<18, int64(i)), 2048)
		cold = append(cold, batch{keys, ascending(len(keys), 1)})
	}
	for _, c := range []struct {
		name    string
		batches []batch
	}{{"zipf64", zipf}, {"fit870", fit}, {"cold2048", cold}} {
		b.Run(c.name, func(b *testing.B) {
			pos := make([]int32, 0, 2048)
			var buf []uint64
			keys := 0
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				bt := c.batches[i%len(c.batches)]
				pos = append(pos[:0], bt.pos...)
				buf = sortPosByKey(pos, bt.keys, buf)
				keys += len(pos)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(keys), "ns/key")
		})
	}
}

// BenchmarkEnginePushParallel measures concurrent gradient pushes into the
// DRAM-resident working set: per-shard read locks plus per-stripe write
// locks around the optimizer step.
func BenchmarkEnginePushParallel(b *testing.B) {
	for _, shards := range []int{1, 8} {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			benchPushParallel(b, shards)
		})
	}
}

// benchPushParallel is BenchmarkEnginePushParallel's concurrent
// gradient-push workload.
func benchPushParallel(b *testing.B, shards int) {
	e := newBenchEngine(b, shards)
	batches := benchBatches(256)
	grads := make([]float32, benchBatchLen*benchDim)
	for i := range grads {
		grads[i] = 0.01
	}
	var worker atomic.Int64
	b.ReportAllocs()
	b.SetBytes(benchBatchLen * benchDim * 4)
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		i := int(worker.Add(1)) * 31
		for pb.Next() {
			keys := batches[i%len(batches)]
			i++
			if err := e.Push(1, keys, grads[:len(keys)*benchDim]); err != nil {
				b.Error(err)
				return
			}
		}
	})
}

// BenchmarkEngineColdBatch is the engine rung of the cold workload, in
// engine-local-cold's shape (2^18 keys over a cache of 2^14, default shards,
// two loaders of 4096 uniform draws pulling and pushing side by side): one PS
// batch per op, so nearly every key is a miss, a promotion, an eviction and a
// record flush, each over lines no cache holds — the maintenance drain is the
// batch. Run with -benchmem: the steady state allocates a handful of objects
// per batch (the second loader's goroutine, channel and closures), not two
// per miss.
func BenchmarkEngineColdBatch(b *testing.B) {
	e, pool, grads := coldBatches(b, 0, workloadCold)
	dim := e.Dim()
	var dst [2][]float32
	for l := range dst {
		dst[l] = make([]float32, workloadCold.draws*dim)
	}
	// both runs f for the two loaders at once, the second on its own
	// goroutine, as bench/'s batch loop does.
	both := func(f func(l int) error) error {
		second := make(chan error, 1)
		go func() { second <- f(1) }()
		return errors.Join(f(0), <-second)
	}
	batch := int64(1 << 20)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		keys := pool[i%len(pool)]
		err := both(func(l int) error { return e.Pull(batch, keys[l], dst[l]) })
		e.EndPullPhase(batch)
		if err == nil {
			err = both(func(l int) error { return e.Push(batch, keys[l], grads) })
		}
		if err == nil {
			err = e.EndBatch(batch)
		}
		if err != nil {
			b.Fatal(err)
		}
		batch++
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(2*workloadCold.draws), "ns/key")
}

// BenchmarkEngineFitBatch is one node's share of a train-tcp-fit step, on
// the engine alone: the distinct keys of a 512-sample Criteo batch at scale
// 0.01, every other one (≈1 730, the share of one of two nodes), in a cache
// that holds them all, with the default AdaGrad; per op Pull, EndPullPhase,
// Push and EndBatch. Every key is a DRAM hit, so ns/key is the batch path's
// own CPU: partition, run sort, index probes, row copies and the optimizer.
func BenchmarkEngineFitBatch(b *testing.B) {
	cfg := psengine.Config{Dim: benchDim, Capacity: 1 << 18, CacheEntries: 1 << 17}.WithDefaults()
	e := newArenaEngine(b, cfg, cfg.Capacity*2)

	criteo := workload.NewCriteo(workload.CriteoConfig{Scale: 0.01, Seed: 1, StreamSeed: 1001})
	pool := make([][]uint64, 32)
	for i := range pool {
		all := workload.UniqueKeys(criteo.NextBatch(512))
		for j := 0; j < len(all); j += 2 {
			pool[i] = append(pool[i], all[j])
		}
	}
	most := 0
	for _, keys := range pool {
		most = max(most, len(keys))
	}
	dst := make([]float32, most*benchDim)
	grads := make([]float32, len(dst))
	for i := range grads {
		grads[i] = float32(i%200)/1e4 - 0.01
	}
	batch := int64(0)
	step := func(keys []uint64) {
		n := len(keys) * benchDim
		err := e.Pull(batch, keys, dst[:n])
		e.EndPullPhase(batch)
		if err == nil {
			err = e.Push(batch, keys, grads[:n])
		}
		if err == nil {
			err = e.EndBatch(batch)
		}
		if err != nil {
			b.Fatal(err)
		}
		batch++
	}
	for _, keys := range pool { // create every key
		step(keys)
	}
	keys := 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		step(pool[i%len(pool)])
		keys += len(pool[i%len(pool)])
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(keys), "ns/key")
}

// BenchmarkSnapRepublish is the writer's rung of serve-tcp-mixed: the
// incremental snapshot republish at the workload's shape — 65 536 trained
// rows of dim 16 in a cache that holds them all, default shards, serving on,
// and per op one writer batch of 2 048 flash-crowd draws (≈1 700 distinct,
// scattered rows). Pull, EndPullPhase and Push run with the timer stopped —
// Push is what marks the rows dirty — so ns/op and, with -benchmem, B/op are
// EndBatch's: the re-copy of the rows the batch dirtied into the shard's
// spare slab. CI holds B/op under 4 KB; a republish that clones the slab
// shows as ≈4 MB.
func BenchmarkSnapRepublish(b *testing.B) { benchSnapRepublish(b, false) }

// BenchmarkSnapRepublishPinned is BenchmarkSnapRepublish with a reader that
// holds every snapshot across two republishes — a gather that outlives a
// writer batch — so every timed EndBatch finds its spare pinned. It copies
// the published slab whole into the parked snapshot's slab, so ns/op is a
// slab copy, and B/op stays under CI's 4 KB; a round that falls back to
// cloning the slab shows as ≈4 MB.
func BenchmarkSnapRepublishPinned(b *testing.B) { benchSnapRepublish(b, true) }

func benchSnapRepublish(b *testing.B, pinned bool) {
	const (
		rows  = 1 << 16
		draws = 2048
		chunk = 8192
	)
	cfg := psengine.Config{
		Dim:          benchDim,
		Optimizer:    optim.NewSGD(0.1),
		Capacity:     1 << 18,
		CacheEntries: 1 << 17,
	}.WithDefaults()
	e := newArenaEngine(b, cfg, cfg.Capacity*2)

	dst := make([]float32, chunk*benchDim)
	grads := make([]float32, chunk*benchDim)
	for i := range grads {
		grads[i] = float32(i%200)/1e4 - 0.01
	}
	batch := int64(0)
	step := func(keys []uint64, timed bool) {
		err := e.Pull(batch, keys, dst[:len(keys)*benchDim])
		e.EndPullPhase(batch)
		if err == nil {
			err = e.Push(batch, keys, grads[:len(keys)*benchDim])
		}
		if timed {
			b.StartTimer()
		}
		if err == nil {
			err = e.EndBatch(batch)
		}
		if timed {
			b.StopTimer()
		}
		if err != nil {
			b.Fatal(err)
		}
		batch++
	}
	keys := make([]uint64, chunk)
	for lo := 0; lo < rows; lo += chunk {
		for i := range keys {
			keys[i] = uint64(lo + i)
		}
		step(keys, false)
	}
	e.EnableServeSnapshots()
	// The writer batches of the workload: the flash crowd moves to a fresh
	// hot window every 32 batches.
	fc := workload.NewFlashCrowd(rows, 4096, 0.9, time.Second, 1)
	pool := make([][]uint64, 128)
	for i := range pool {
		fc.Advance(time.Duration(i/32) * time.Second)
		pool[i] = workload.Batch(fc, draws)
	}
	// With pinned, round i pins what it is about to retire and releases what
	// round i-1 pinned: the spare this round found pinned.
	var pins [2]SnapPins
	round := func(i int, timed bool) {
		if pinned {
			e.PinSnapshots(&pins[i%2])
		}
		step(pool[i%len(pool)], timed)
		pins[(i+1)%2].Unpin()
	}
	// The first republish of an epoch has no spare yet; under pins, the
	// first pinned spare has nothing parked, and its clone parks it.
	warm := 2
	if pinned {
		warm = 4
	}
	for i := 0; i < warm; i++ {
		round(i, false)
	}

	b.ReportAllocs()
	b.ResetTimer()
	b.StopTimer()
	for i := 0; i < b.N; i++ {
		round(i, true)
	}
	pins[(b.N+1)%2].Unpin()
}
