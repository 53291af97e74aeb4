package core

import (
	"errors"
	"math/rand"
	"runtime"
	"sync"
	"testing"

	"openembedding/internal/device"
	"openembedding/internal/obs"
	"openembedding/internal/optim"
	"openembedding/internal/pmem"
	"openembedding/internal/psengine"
	"openembedding/internal/simclock"
)

func testConfig(dim, capacity, cacheEntries int) psengine.Config {
	return psengine.Config{
		Dim:          dim,
		Optimizer:    optim.NewSGD(0.1),
		Capacity:     capacity,
		CacheEntries: cacheEntries,
		Meter:        simclock.NewMeter(),
		// Pinned so the oracle tests behave identically on every host
		// (the default derives from GOMAXPROCS). Multi-shard behaviour is
		// covered by shard_test.go with explicit shard counts.
		Shards: 1,
	}
}

func newTestEngine(t *testing.T, cfg psengine.Config) *Engine {
	t.Helper()
	cfg = cfg.WithDefaults()
	payload := pmem.FloatBytes(cfg.EntryFloats())
	slots := cfg.Capacity * 4 // room for retained versions
	dev := pmem.NewDevice(pmem.ArenaLayout(payload, slots), device.NewTimedPMem(cfg.Meter))
	t.Cleanup(func() { dev.Close() })
	arena, err := pmem.NewArena(dev, payload, slots)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := New(cfg, arena)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { eng.Close() })
	return eng
}

// runBatch drives one synchronous batch through the engine: pull, pipeline
// maintenance, push (grads may be nil to skip the update), seal.
func runBatch(t *testing.T, e *Engine, batch int64, keys []uint64, grads []float32) []float32 {
	t.Helper()
	dst := make([]float32, len(keys)*e.Dim())
	if err := e.Pull(batch, keys, dst); err != nil {
		t.Fatalf("pull batch %d: %v", batch, err)
	}
	e.EndPullPhase(batch)
	e.WaitMaintenance()
	if grads != nil {
		if err := e.Push(batch, keys, grads); err != nil {
			t.Fatalf("push batch %d: %v", batch, err)
		}
	}
	if err := e.EndBatch(batch); err != nil {
		t.Fatalf("end batch %d: %v", batch, err)
	}
	return dst
}

func constGrads(n, dim int, v float32) []float32 {
	g := make([]float32, n*dim)
	for i := range g {
		g[i] = v
	}
	return g
}

func TestPullInitializesDeterministically(t *testing.T) {
	e := newTestEngine(t, testConfig(8, 100, 50))
	w1 := runBatch(t, e, 0, []uint64{7}, nil)
	w2 := runBatch(t, e, 1, []uint64{7}, nil)
	for i := range w1 {
		if w1[i] != w2[i] {
			t.Fatalf("re-pull changed weights: %v vs %v", w1, w2)
		}
	}
	// A second engine must initialize the same key identically.
	e2 := newTestEngine(t, testConfig(8, 100, 50))
	w3 := runBatch(t, e2, 0, []uint64{7}, nil)
	for i := range w1 {
		if w1[i] != w3[i] {
			t.Fatal("initializer not deterministic across engines")
		}
	}
	var nonzero bool
	for _, v := range w1 {
		if v != 0 {
			nonzero = true
		}
	}
	if !nonzero {
		t.Fatal("xavier init produced all zeros")
	}
}

func TestPullPushRoundTrip(t *testing.T) {
	e := newTestEngine(t, testConfig(4, 100, 50))
	keys := []uint64{1, 2}
	before := runBatch(t, e, 0, keys, constGrads(2, 4, 1.0))
	after := runBatch(t, e, 1, keys, nil)
	for i := range after {
		want := before[i] - 0.1*1.0 // SGD lr=0.1
		if diff := after[i] - want; diff > 1e-6 || diff < -1e-6 {
			t.Fatalf("weight[%d] = %v, want %v", i, after[i], want)
		}
	}
}

func TestDuplicateKeysWithinBatch(t *testing.T) {
	e := newTestEngine(t, testConfig(2, 100, 50))
	keys := []uint64{5, 5}
	dst := runBatch(t, e, 0, keys, nil)
	if dst[0] != dst[2] || dst[1] != dst[3] {
		t.Fatalf("duplicate key pulls disagree: %v", dst)
	}
	// Both gradient copies must be applied (two optimizer steps).
	runBatch(t, e, 1, keys, constGrads(2, 2, 1.0))
	after := runBatch(t, e, 2, []uint64{5}, nil)
	want := dst[0] - 2*0.1
	if d := after[0] - want; d > 1e-6 || d < -1e-6 {
		t.Fatalf("after[0] = %v, want %v (both duplicate grads applied)", after[0], want)
	}
}

func TestEvictionRoundTripsThroughPMem(t *testing.T) {
	e := newTestEngine(t, testConfig(4, 64, 4)) // tiny cache
	var saved [][]float32
	for k := uint64(0); k < 16; k++ {
		w := runBatch(t, e, int64(k), []uint64{k}, constGrads(1, 4, float32(k)))
		exp := make([]float32, 4)
		for i := range exp {
			exp[i] = w[i] - 0.1*float32(k)
		}
		saved = append(saved, exp)
	}
	st := e.Stats()
	if st.Evictions == 0 || st.PMemWrites == 0 {
		t.Fatalf("tiny cache produced no evictions: %+v", st)
	}
	// Re-pull everything; values must match what was evicted.
	for k := uint64(0); k < 16; k++ {
		got := runBatch(t, e, int64(100+k), []uint64{k}, nil)
		for i := range got {
			if d := got[i] - saved[k][i]; d > 1e-5 || d < -1e-5 {
				t.Fatalf("key %d weight[%d] = %v, want %v", k, i, got[i], saved[k][i])
			}
		}
	}
	if e.Stats().Misses == 0 {
		t.Fatal("no PMem misses despite eviction")
	}
}

func TestCheckpointCompletes(t *testing.T) {
	e := newTestEngine(t, testConfig(4, 100, 20))
	keys := []uint64{1, 2, 3}
	runBatch(t, e, 0, keys, constGrads(3, 4, 1))
	if err := e.RequestCheckpoint(0); err != nil {
		t.Fatal(err)
	}
	// The finalizer completes the checkpoint during the next batch.
	runBatch(t, e, 1, keys, constGrads(3, 4, 1))
	if got := e.CompletedCheckpoint(); got != 0 {
		t.Fatalf("CompletedCheckpoint = %d, want 0", got)
	}
	if e.PendingCheckpoints() != 0 {
		t.Fatal("request queue not drained")
	}
	if id, _ := e.Arena().CheckpointedBatch(); id != 0 {
		t.Fatalf("durable ckpt id = %d", id)
	}
}

func TestRequestCheckpointValidation(t *testing.T) {
	e := newTestEngine(t, testConfig(2, 10, 5))
	if err := e.RequestCheckpoint(0); err == nil {
		t.Fatal("checkpoint of unsealed batch accepted")
	}
	runBatch(t, e, 0, []uint64{1}, nil)
	runBatch(t, e, 1, []uint64{1}, nil)
	if err := e.RequestCheckpoint(1); err != nil {
		t.Fatal(err)
	}
	if err := e.RequestCheckpoint(1); err == nil {
		t.Fatal("duplicate checkpoint accepted")
	}
	if err := e.RequestCheckpoint(0); err == nil {
		t.Fatal("regressing checkpoint accepted")
	}
}

// oracle replays the same training on a plain map, giving the expected
// state at every batch.
type oracle struct {
	cfg     psengine.Config
	weights map[uint64][]float32
	state   map[uint64][]float32
	history map[int64]map[uint64][]float32 // snapshots by batch id
}

func newOracle(cfg psengine.Config) *oracle {
	return &oracle{
		cfg:     cfg.WithDefaults(),
		weights: map[uint64][]float32{},
		state:   map[uint64][]float32{},
		history: map[int64]map[uint64][]float32{},
	}
}

func (o *oracle) touch(key uint64) {
	if _, ok := o.weights[key]; ok {
		return
	}
	w := make([]float32, o.cfg.Dim)
	o.cfg.Initializer(key, w)
	s := make([]float32, o.cfg.Optimizer.StateFloats(o.cfg.Dim))
	o.cfg.Optimizer.InitState(s)
	o.weights[key] = w
	o.state[key] = s
}

func (o *oracle) push(keys []uint64, grads []float32) {
	dim := o.cfg.Dim
	for i, k := range keys {
		o.touch(k)
		o.cfg.Optimizer.Apply(o.weights[k], o.state[k], grads[i*dim:(i+1)*dim])
	}
}

func (o *oracle) snapshot(batch int64) {
	snap := make(map[uint64][]float32, len(o.weights))
	for k, w := range o.weights {
		cp := make([]float32, len(w))
		copy(cp, w)
		snap[k] = cp
	}
	o.history[batch] = snap
}

func TestCrashRecoveryMatchesCheckpoint(t *testing.T) {
	cfg := testConfig(4, 256, 8) // small cache to force PMem traffic
	e := newTestEngine(t, cfg)
	orc := newOracle(cfg)
	rng := rand.New(rand.NewSource(42))

	batchKeys := func() []uint64 {
		n := 3 + rng.Intn(5)
		keys := make([]uint64, 0, n)
		seen := map[uint64]bool{}
		for len(keys) < n {
			k := uint64(rng.Intn(40))
			if !seen[k] {
				seen[k] = true
				keys = append(keys, k)
			}
		}
		return keys
	}

	var ckptAt int64 = -1
	for b := int64(0); b < 30; b++ {
		keys := batchKeys()
		grads := make([]float32, len(keys)*cfg.Dim)
		for i := range grads {
			grads[i] = float32(rng.NormFloat64())
		}
		for _, k := range keys {
			orc.touch(k)
		}
		runBatch(t, e, b, keys, grads)
		orc.push(keys, grads)
		orc.snapshot(b)
		if b == 14 {
			if err := e.RequestCheckpoint(b); err != nil {
				t.Fatal(err)
			}
			ckptAt = b
		}
	}
	if e.CompletedCheckpoint() != ckptAt {
		t.Fatalf("checkpoint %d not completed (got %d)", ckptAt, e.CompletedCheckpoint())
	}

	// Power failure, then recovery.
	dev := e.Arena().Device()
	e.Close()
	dev.Crash()
	rec, gotCkpt, err := Recover(cfg, dev)
	if err != nil {
		t.Fatal(err)
	}
	defer rec.Close()
	if gotCkpt != ckptAt {
		t.Fatalf("recovered ckpt = %d, want %d", gotCkpt, ckptAt)
	}

	// Every key known at the checkpoint must read back exactly the oracle's
	// state at that batch.
	want := orc.history[ckptAt]
	for k, exp := range want {
		got := make([]float32, cfg.Dim)
		if err := rec.Pull(ckptAt+1, []uint64{k}, got); err != nil {
			t.Fatalf("pull recovered key %d: %v", k, err)
		}
		for i := range exp {
			if d := got[i] - exp[i]; d > 1e-5 || d < -1e-5 {
				t.Fatalf("key %d weight[%d]: recovered %v, checkpoint state %v", k, i, got[i], exp[i])
			}
		}
	}
}

func TestRecoveryDropsPostCheckpointWrites(t *testing.T) {
	cfg := testConfig(2, 64, 2) // cache of 2: constant eviction traffic
	e := newTestEngine(t, cfg)

	runBatch(t, e, 0, []uint64{1, 2, 3}, constGrads(3, 2, 1))
	runBatch(t, e, 1, []uint64{1, 2, 3}, constGrads(3, 2, 1))
	if err := e.RequestCheckpoint(1); err != nil {
		t.Fatal(err)
	}
	state1 := runBatch(t, e, 2, []uint64{1, 2, 3}, constGrads(3, 2, 1)) // pulls show post-batch-1 state
	runBatch(t, e, 3, []uint64{1, 2, 3}, constGrads(3, 2, 1))           // post-ckpt updates, some flushed by eviction
	if e.CompletedCheckpoint() != 1 {
		t.Fatalf("ckpt not done: %d", e.CompletedCheckpoint())
	}

	dev := e.Arena().Device()
	e.Close()
	dev.Crash()
	rec, ckpt, err := Recover(cfg, dev)
	if err != nil {
		t.Fatal(err)
	}
	defer rec.Close()
	if ckpt != 1 {
		t.Fatalf("ckpt = %d", ckpt)
	}
	got := make([]float32, 3*2)
	if err := rec.Pull(2, []uint64{1, 2, 3}, got); err != nil {
		t.Fatal(err)
	}
	for i := range got {
		if d := got[i] - state1[i]; d > 1e-5 || d < -1e-5 {
			t.Fatalf("recovered[%d] = %v, want checkpoint-1 state %v", i, got[i], state1[i])
		}
	}
}

func TestRecoveryDropsNeverCheckpointedKeys(t *testing.T) {
	cfg := testConfig(2, 64, 2)
	e := newTestEngine(t, cfg)
	runBatch(t, e, 0, []uint64{1}, constGrads(1, 2, 1))
	if err := e.RequestCheckpoint(0); err != nil {
		t.Fatal(err)
	}
	runBatch(t, e, 1, []uint64{1}, constGrads(1, 2, 1))
	runBatch(t, e, 2, []uint64{99}, constGrads(1, 2, 1)) // born after ckpt
	runBatch(t, e, 3, []uint64{1, 99}, constGrads(2, 2, 1))

	dev := e.Arena().Device()
	e.Close()
	dev.Crash()
	rec, _, err := Recover(cfg, dev)
	if err != nil {
		t.Fatal(err)
	}
	defer rec.Close()
	st := rec.Stats()
	if st.Entries != 1 {
		t.Fatalf("recovered %d entries, want only key 1", st.Entries)
	}
}

func TestPipelineDisabledProducesSameResults(t *testing.T) {
	cfgP := testConfig(4, 64, 4)
	cfgI := cfgP
	cfgI.PipelineDisabled = true
	ep := newTestEngine(t, cfgP)
	ei := newTestEngine(t, cfgI)
	rng := rand.New(rand.NewSource(7))
	for b := int64(0); b < 10; b++ {
		keys := []uint64{uint64(rng.Intn(12)), uint64(12 + rng.Intn(12))}
		grads := constGrads(2, 4, float32(b))
		wp := runBatch(t, ep, b, keys, grads)
		wi := runBatch(t, ei, b, keys, grads)
		for i := range wp {
			if wp[i] != wi[i] {
				t.Fatalf("batch %d: pipelined %v != inline %v", b, wp, wi)
			}
		}
	}
}

func TestCacheDisabledStillCorrect(t *testing.T) {
	cfg := testConfig(2, 32, 8)
	cfg.CacheDisabled = true
	e := newTestEngine(t, cfg)
	before := runBatch(t, e, 0, []uint64{1, 2}, constGrads(2, 2, 1))
	after := runBatch(t, e, 1, []uint64{1, 2}, nil)
	for i := range after {
		want := before[i] - 0.1
		if d := after[i] - want; d > 1e-6 || d < -1e-6 {
			t.Fatalf("after[%d] = %v want %v", i, after[i], want)
		}
	}
	if st := e.Stats(); st.CachedEntries != 0 {
		t.Fatalf("cache disabled but %d entries cached", st.CachedEntries)
	}
}

func TestPushSmallerCacheThanBatch(t *testing.T) {
	cfg := testConfig(2, 64, 2) // cache holds 2, batch touches 6
	e := newTestEngine(t, cfg)
	keys := []uint64{1, 2, 3, 4, 5, 6}
	runBatch(t, e, 0, keys, constGrads(6, 2, 1))
	got := runBatch(t, e, 1, keys, nil)
	first := runBatchValues(t, cfg, keys)
	for i := range got {
		want := first[i] - 0.1
		if d := got[i] - want; d > 1e-6 || d < -1e-6 {
			t.Fatalf("weight[%d] = %v, want %v", i, got[i], want)
		}
	}
}

// runBatchValues computes the deterministic initial weights for keys.
func runBatchValues(t *testing.T, cfg psengine.Config, keys []uint64) []float32 {
	t.Helper()
	cfg = cfg.WithDefaults()
	out := make([]float32, len(keys)*cfg.Dim)
	for i, k := range keys {
		cfg.Initializer(k, out[i*cfg.Dim:(i+1)*cfg.Dim])
	}
	return out
}

func TestErrorPaths(t *testing.T) {
	e := newTestEngine(t, testConfig(4, 8, 4))
	if err := e.Pull(0, []uint64{1}, make([]float32, 3)); !errors.Is(err, psengine.ErrDimension) {
		t.Fatalf("want ErrDimension, got %v", err)
	}
	if err := e.Push(0, []uint64{1}, make([]float32, 5)); !errors.Is(err, psengine.ErrDimension) {
		t.Fatalf("want ErrDimension, got %v", err)
	}
	if err := e.Push(0, []uint64{123}, make([]float32, 4)); err == nil {
		t.Fatal("push of unknown key accepted")
	}
	// Capacity: 8 entries max.
	keys := make([]uint64, 9)
	for i := range keys {
		keys[i] = uint64(i)
	}
	if err := e.Pull(0, keys, make([]float32, 9*4)); !errors.Is(err, psengine.ErrCapacity) {
		t.Fatalf("want ErrCapacity, got %v", err)
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	if err := e.Close(); err != nil { // double close is fine
		t.Fatal(err)
	}
	if err := e.Pull(1, []uint64{1}, make([]float32, 4)); !errors.Is(err, psengine.ErrClosed) {
		t.Fatalf("want ErrClosed, got %v", err)
	}
	if err := e.Push(1, []uint64{1}, make([]float32, 4)); !errors.Is(err, psengine.ErrClosed) {
		t.Fatalf("want ErrClosed, got %v", err)
	}
	if err := e.EndBatch(1); !errors.Is(err, psengine.ErrClosed) {
		t.Fatalf("want ErrClosed, got %v", err)
	}
}

// TestCloseDuringBatch: a node closes its engine to roll it back while other
// connections are mid-batch, so Close may land between any two calls of the
// batch protocol — EndPullPhase's hand-off to the maintainer and a Push that
// is running a round it took off the queue (WaitMaintenance) included. The
// batch then fails as ErrClosed; it never panics on the closed task queue,
// and no queued round is lost: once Close has returned every task has been
// run and retired, whoever ran it.
func TestCloseDuringBatch(t *testing.T) {
	keys := []uint64{1, 2, 3, 4, 5, 6, 7, 8}
	dst := make([]float32, len(keys)*4)
	grads := constGrads(len(keys), 4, 1)
	for round := 0; round < 50; round++ {
		cfg := testConfig(4, 64, 4)
		cfg.Shards = 2
		cfg.Obs = obs.NewRegistry()
		e := newTestEngine(t, cfg)
		done := make(chan error, 1)
		go func() {
			for b := int64(0); ; b++ {
				if err := e.Pull(b, keys, dst); err != nil {
					done <- err
					return
				}
				e.EndPullPhase(b)
				if err := e.Push(b, keys, grads); err != nil {
					done <- err
					return
				}
				if err := e.EndBatch(b); err != nil {
					done <- err
					return
				}
			}
		}()
		if round%2 == 1 {
			runtime.Gosched() // let some rounds land mid-batch rather than before it
		}
		if err := e.Close(); err != nil {
			t.Fatal(err)
		}
		if depth := cfg.Obs.Gauge("engine_maint_queue_depth").Value(); depth != 0 {
			t.Fatalf("round %d: Close returned with %d maintenance tasks queued or running", round, depth)
		}
		if err := <-done; !errors.Is(err, psengine.ErrClosed) {
			t.Fatalf("round %d: batch against a closing engine: %v, want ErrClosed", round, err)
		}
		e.WaitMaintenance() // nothing pending: returns at once
	}
}

func TestConcurrentPullersAndPushers(t *testing.T) {
	cfg := testConfig(4, 512, 64)
	e := newTestEngine(t, cfg)
	const workers = 4
	keysFor := func(w int) []uint64 {
		keys := make([]uint64, 8)
		for i := range keys {
			if i < 4 {
				keys[i] = uint64(i) // hot keys shared by all workers
			} else {
				keys[i] = uint64(100 + w*10 + i)
			}
		}
		return keys
	}
	for b := int64(0); b < 5; b++ {
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				keys := keysFor(w)
				dst := make([]float32, len(keys)*cfg.Dim)
				if err := e.Pull(b, keys, dst); err != nil {
					t.Error(err)
				}
			}(w)
		}
		wg.Wait()
		e.EndPullPhase(b)
		e.WaitMaintenance()
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				keys := keysFor(w)
				if err := e.Push(b, keys, constGrads(len(keys), cfg.Dim, 0.1)); err != nil {
					t.Error(err)
				}
			}(w)
		}
		wg.Wait()
		if err := e.EndBatch(b); err != nil {
			t.Fatal(err)
		}
	}
	// Hot key 0 received workers grads per batch over 5 batches.
	got := make([]float32, cfg.Dim)
	if err := e.Pull(10, []uint64{0}, got); err != nil {
		t.Fatal(err)
	}
	init := runBatchValues(t, cfg, []uint64{0})
	want := init[0] - 0.1*0.1*float32(workers*5)
	if d := got[0] - want; d > 1e-4 || d < -1e-4 {
		t.Fatalf("hot key weight = %v, want %v (lost updates?)", got[0], want)
	}
}

func TestStatsAndMeterAccounting(t *testing.T) {
	cfg := testConfig(4, 64, 2)
	e := newTestEngine(t, cfg)
	for b := int64(0); b < 8; b++ {
		runBatch(t, e, b, []uint64{uint64(b % 6)}, constGrads(1, 4, 1))
	}
	st := e.Stats()
	if st.Entries != 6 {
		t.Fatalf("entries = %d", st.Entries)
	}
	if st.Hits+st.Misses == 0 {
		t.Fatal("no lookups recorded")
	}
	m := cfg.Meter
	if m.Total(simclock.PMemWrite) == 0 {
		t.Fatal("no PMem write time charged despite evictions")
	}
	if m.Total(simclock.DRAMRead) == 0 || m.Total(simclock.Compute) == 0 {
		t.Fatal("DRAM/compute costs not charged")
	}
	if st.MissRate() < 0 || st.MissRate() > 1 {
		t.Fatalf("miss rate %v out of range", st.MissRate())
	}
}

func TestArenaSpaceIsReclaimedWithoutCheckpoints(t *testing.T) {
	// Flush the same keys many times; without reclamation the arena
	// (4x capacity) would fill after a few rounds of retires.
	cfg := testConfig(2, 8, 2)
	e := newTestEngine(t, cfg)
	keys := []uint64{1, 2, 3, 4, 5, 6, 7}
	for b := int64(0); b < 200; b++ {
		runBatch(t, e, b, keys, constGrads(len(keys), 2, 1))
	}
	if st := e.Stats(); st.PMemWrites < 100 {
		t.Fatalf("expected heavy flush traffic, got %d", st.PMemWrites)
	}
}

func TestArenaSpaceIsReclaimedAcrossCheckpoints(t *testing.T) {
	cfg := testConfig(2, 8, 2)
	e := newTestEngine(t, cfg)
	keys := []uint64{1, 2, 3, 4, 5, 6, 7}
	for b := int64(0); b < 200; b++ {
		runBatch(t, e, b, keys, constGrads(len(keys), 2, 1))
		if b%10 == 9 {
			if err := e.RequestCheckpoint(b); err != nil {
				t.Fatal(err)
			}
		}
	}
	if e.CompletedCheckpoint() < 150 {
		t.Fatalf("checkpoints lagging: completed %d", e.CompletedCheckpoint())
	}
}

func TestLRUVersionsNondecreasingFromTail(t *testing.T) {
	cfg := testConfig(2, 128, 16)
	e := newTestEngine(t, cfg)
	rng := rand.New(rand.NewSource(3))
	for b := int64(0); b < 40; b++ {
		keys := []uint64{uint64(rng.Intn(30)), uint64(rng.Intn(30)), uint64(rng.Intn(30))}
		seen := map[uint64]bool{}
		uniq := keys[:0]
		for _, k := range keys {
			if !seen[k] {
				seen[k] = true
				uniq = append(uniq, k)
			}
		}
		runBatch(t, e, b, uniq, constGrads(len(uniq), 2, 1))

		// Invariant: within each shard, LRU order and version order
		// coincide (what makes checkpoint completion detectable from the
		// tail).
		for _, s := range e.shards {
			s.mu.RLock()
			last := int64(-1 << 62)
			ok := true
			for n := s.lru.Back(); n != nil; n = s.lru.Prev(n) {
				if n.Value.version < last {
					ok = false
					break
				}
				last = n.Value.version
			}
			s.mu.RUnlock()
			if !ok {
				t.Fatalf("batch %d: shard %d LRU versions not nondecreasing from tail", b, s.id)
			}
		}
	}
}
