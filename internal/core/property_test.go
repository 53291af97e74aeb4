package core

import (
	"math/rand"
	"testing"

	"openembedding/internal/device"
	"openembedding/internal/pmem"
)

// TestRandomizedCrashRecoveryProperty is the repository's strongest
// correctness check: random synchronous training with checkpoints at
// random batches and power failures at random points, across many cache
// sizes. After every crash, the recovered store must expose EXACTLY the
// oracle's state at the last completed checkpoint — never a torn value,
// never a post-checkpoint write, never a missing pre-checkpoint one.
func TestRandomizedCrashRecoveryProperty(t *testing.T) {
	for seed := int64(0); seed < 12; seed++ {
		seed := seed
		t.Run("", func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			cfg := testConfig(4, 512, 2+rng.Intn(24)) // cache from tiny to roomy
			eng := newTestEngine(t, cfg)
			orc := newOracle(cfg)

			const keySpace = 64
			var lastCkptRequested int64 = -1
			batch := int64(0)

			runOne := func() {
				n := 1 + rng.Intn(6)
				seen := map[uint64]bool{}
				keys := make([]uint64, 0, n)
				for len(keys) < n {
					k := uint64(rng.Intn(keySpace))
					if !seen[k] {
						seen[k] = true
						keys = append(keys, k)
					}
				}
				grads := make([]float32, len(keys)*cfg.Dim)
				for i := range grads {
					grads[i] = float32(rng.NormFloat64())
				}
				for _, k := range keys {
					orc.touch(k)
				}
				runBatch(t, eng, batch, keys, grads)
				orc.push(keys, grads)
				orc.snapshot(batch)
				batch++
			}

			for round := 0; round < 3; round++ {
				steps := 5 + rng.Intn(15)
				for i := 0; i < steps; i++ {
					runOne()
					if rng.Intn(5) == 0 {
						if err := eng.RequestCheckpoint(batch - 1); err != nil {
							t.Fatal(err)
						}
						lastCkptRequested = batch - 1
					}
				}
				_ = lastCkptRequested

				// Crash at an arbitrary moment (possibly with checkpoints
				// still pending — those must simply not count).
				completed := eng.CompletedCheckpoint()
				dev := eng.Arena().Device()
				eng.Close()
				dev.Crash()

				workers := 1 + rng.Intn(4)
				rec, gotCkpt, err := RecoverParallel(cfg, dev, workers)
				if err != nil {
					t.Fatalf("seed %d round %d: recover: %v", seed, round, err)
				}
				if gotCkpt != completed {
					t.Fatalf("seed %d: recovered to %d, completed was %d", seed, gotCkpt, completed)
				}

				if completed < 0 {
					if n := rec.Stats().Entries; n != 0 {
						t.Fatalf("seed %d: no checkpoint but recovered %d entries", seed, n)
					}
				} else {
					want := orc.history[completed]
					// Recovery may legitimately include entries *born* in
					// the batch right after the checkpoint (their init
					// state is "as of the checkpoint's end") — but those
					// extras must hold exactly their deterministic init
					// values, and every oracle key must be present.
					for _, k := range rec.Keys() {
						got := make([]float32, cfg.Dim)
						if err := rec.Pull(completed+1, []uint64{k}, got); err != nil {
							t.Fatalf("pull recovered key %d: %v", k, err)
						}
						exp, inOracle := want[k]
						if !inOracle {
							exp = make([]float32, cfg.Dim)
							cfg.WithDefaults().Initializer(k, exp)
						}
						for d := range exp {
							if got[d] != exp[d] {
								t.Fatalf("seed %d round %d: key %d[%d] = %v, want %v (ckpt %d, inOracle=%v)",
									seed, round, k, d, got[d], exp[d], completed, inOracle)
							}
						}
					}
					if int64(len(want)) > rec.Stats().Entries {
						t.Fatalf("seed %d: recovered %d entries, oracle needs %d at batch %d",
							seed, rec.Stats().Entries, len(want), completed)
					}
					// And every oracle key must be present with the oracle's
					// value (a missing key would be recreated at init and
					// mismatch here).
					for k, exp := range want {
						got := make([]float32, cfg.Dim)
						if err := rec.Pull(completed+1, []uint64{k}, got); err != nil {
							t.Fatalf("pull oracle key %d: %v", k, err)
						}
						for d := range exp {
							if got[d] != exp[d] {
								t.Fatalf("seed %d round %d: oracle key %d[%d] = %v, want %v",
									seed, round, k, d, got[d], exp[d])
							}
						}
					}
					// The pulls above must not disturb recovered state:
					// seal them so the next round's batches are valid.
					rec.EndPullPhase(completed + 1)
					if err := rec.EndBatch(completed + 1); err != nil {
						t.Fatal(err)
					}
				}

				// Resume: the recovered engine becomes the engine under
				// test, the oracle rewinds to the checkpoint.
				eng = rec
				t.Cleanup(func() { rec.Close() })
				batch = completed + 2
				if completed >= 0 {
					orc.rewindTo(completed)
				} else {
					orc = newOracle(cfg)
				}
			}
		})
	}
}

// rewindTo resets the oracle's live state to its snapshot at batch (what
// recovery does to the engine).
func (o *oracle) rewindTo(batch int64) {
	snap := o.history[batch]
	o.weights = map[uint64][]float32{}
	o.state = map[uint64][]float32{}
	for k, w := range snap {
		cp := make([]float32, len(w))
		copy(cp, w)
		o.weights[k] = cp
	}
	// Optimizer state is SGD (stateless) in these property tests; AdaGrad
	// state would need snapshotting too.
	for k := range snap {
		o.state[k] = make([]float32, o.cfg.Optimizer.StateFloats(o.cfg.Dim))
		o.cfg.Optimizer.InitState(o.state[k])
	}
}

// TestParallelRecoveryMatchesSequential: both recovery paths must produce
// identical stores.
func TestParallelRecoveryMatchesSequential(t *testing.T) {
	cfg := testConfig(4, 256, 8)
	build := func() *pmem.Device {
		eng := newTestEngine(t, cfg)
		rng := rand.New(rand.NewSource(77))
		for b := int64(0); b < 20; b++ {
			keys := []uint64{uint64(rng.Intn(50)), uint64(50 + rng.Intn(50))}
			grads := make([]float32, len(keys)*cfg.Dim)
			for i := range grads {
				grads[i] = float32(rng.NormFloat64())
			}
			runBatch(t, eng, b, keys, grads)
			if b == 15 {
				if err := eng.RequestCheckpoint(b); err != nil {
					t.Fatal(err)
				}
			}
		}
		dev := eng.Arena().Device()
		eng.Close()
		dev.Crash()
		return dev
	}

	devSeq, devPar := build(), build()
	seq, ckptSeq, err := RecoverParallel(cfg, devSeq, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer seq.Close()
	par, ckptPar, err := RecoverParallel(cfg, devPar, 4)
	if err != nil {
		t.Fatal(err)
	}
	defer par.Close()
	if ckptSeq != ckptPar || ckptSeq != 15 {
		t.Fatalf("checkpoints differ: %d vs %d", ckptSeq, ckptPar)
	}
	if seq.Stats().Entries != par.Stats().Entries {
		t.Fatalf("entry counts differ: %d vs %d", seq.Stats().Entries, par.Stats().Entries)
	}
	for k := uint64(0); k < 100; k++ {
		a := make([]float32, cfg.Dim)
		b := make([]float32, cfg.Dim)
		errA := seq.Pull(16, []uint64{k}, a)
		errB := par.Pull(16, []uint64{k}, b)
		if (errA == nil) != (errB == nil) {
			t.Fatalf("key %d presence differs", k)
		}
		for d := range a {
			if a[d] != b[d] {
				t.Fatalf("key %d[%d]: sequential %v vs parallel %v", k, d, a[d], b[d])
			}
		}
	}
}

// TestPushDoesNotReorderLRU pins design decision 2 (Sec. V-B): the entries
// pulled and pushed in a batch are the same, so push skips the LRU — one
// reorder per key per batch, not two.
func TestPushDoesNotReorderLRU(t *testing.T) {
	cfg := testConfig(2, 64, 16)
	e := newTestEngine(t, cfg)

	keys := []uint64{1, 2, 3}
	runBatch(t, e, 0, keys, constGrads(3, 2, 1))

	order := func() []uint64 {
		var out []uint64
		for _, s := range e.shards {
			s.mu.RLock()
			s.lru.Each(func(ent *entry) bool {
				out = append(out, ent.key)
				return true
			})
			s.mu.RUnlock()
		}
		return out
	}
	before := order()

	// A push without a surrounding pull (legal, if unusual) must leave the
	// LRU order untouched.
	if err := e.Push(1, []uint64{3, 1}, constGrads(2, 2, 1)); err != nil {
		t.Fatal(err)
	}
	after := order()
	if len(before) != len(after) {
		t.Fatalf("LRU length changed: %v -> %v", before, after)
	}
	for i := range before {
		if before[i] != after[i] {
			t.Fatalf("push reordered LRU: %v -> %v", before, after)
		}
	}
}

// TestMaintenanceErrorSurfaces: when the arena cannot hold the retained
// versions a pending checkpoint needs, the failure must reach the caller
// at EndBatch, not vanish in a maintainer goroutine — or in a request thread
// that ran the round while it waited (helperMaintenanceError).
func TestMaintenanceErrorSurfaces(t *testing.T) {
	cfg := testConfig(2, 8, 2)
	cfg = cfg.WithDefaults()
	// An arena with exactly as many slots as entries: no headroom for
	// retained versions.
	payload := pmem.FloatBytes(cfg.EntryFloats())
	dev := pmem.NewDevice(pmem.ArenaLayout(payload, 8), device.NewTimedPMem(cfg.Meter))
	t.Cleanup(func() { dev.Close() })
	arena, err := pmem.NewArena(dev, payload, 8)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := New(cfg, arena)
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()

	keys := []uint64{1, 2, 3, 4, 5, 6, 7}
	grads := constGrads(len(keys), 2, 1)
	var sawErr bool
	for b := int64(0); b < 40 && !sawErr; b++ {
		dst := make([]float32, len(keys)*2)
		if err := eng.Pull(b, keys, dst); err != nil {
			sawErr = true
			break
		}
		eng.EndPullPhase(b)
		eng.WaitMaintenance()
		if err := eng.Push(b, keys, grads); err != nil {
			sawErr = true
			break
		}
		if err := eng.EndBatch(b); err != nil {
			sawErr = true
			break
		}
		// Keep a checkpoint pending forever by requesting but crashing the
		// natural completion path: request each batch so retention grows.
		if b == 0 {
			if err := eng.RequestCheckpoint(0); err != nil {
				t.Fatal(err)
			}
		}
	}
	// With 7 keys in 8 slots and retention pressure the engine either
	// survives by reclaiming (fine) or surfaces ErrFull-wrapped errors —
	// it must never panic or deadlock. Reaching here is the assertion.

	t.Run("raised-in-a-helper", helperMaintenanceError)
}
