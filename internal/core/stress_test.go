package core

import (
	"math/rand"
	"sync"
	"testing"

	"openembedding/internal/psengine"
	"openembedding/internal/workload"
)

// TestPipelinedStressWithCheckpoints runs the engine the way the library
// is actually used: several maintainer threads, concurrent worker
// goroutines sharing hot keys, no manual WaitMaintenance between phases
// (Push synchronizes itself), periodic checkpoints — all under the race
// detector in CI. Correctness oracle: AdaGrad with a constant gradient is
// order-independent, so the final weights depend only on each key's total
// push count.
func TestPipelinedStressWithCheckpoints(t *testing.T) {
	cfg := psengine.Config{
		Dim:          8,
		Capacity:     4096,
		CacheEntries: 128,
		Meter:        nil,
	}
	e := newTestEngine(t, cfg)
	dim := 8

	const (
		workers = 4
		batches = 30
	)
	sampler := make([]workload.KeySampler, workers)
	for w := range sampler {
		sampler[w] = workload.NewTableIISkew(2048, int64(w+1))
	}

	pushCount := map[uint64]int{}
	grad := make([]float32, 64*dim)
	for i := range grad {
		grad[i] = 1
	}

	for b := int64(0); b < batches; b++ {
		keysByWorker := make([][]uint64, workers)
		for w := range keysByWorker {
			keysByWorker[w] = workload.Batch(sampler[w], 64)
		}

		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				keys := keysByWorker[w]
				dst := make([]float32, len(keys)*dim)
				if err := e.Pull(b, keys, dst); err != nil {
					t.Error(err)
				}
			}(w)
		}
		wg.Wait()
		e.EndPullPhase(b)
		// No WaitMaintenance: pushes must synchronize on their own.
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				keys := keysByWorker[w]
				if err := e.Push(b, keys, grad[:len(keys)*dim]); err != nil {
					t.Error(err)
				}
			}(w)
		}
		wg.Wait()
		for _, keys := range keysByWorker {
			for _, k := range keys {
				pushCount[k]++
			}
		}
		if err := e.EndBatch(b); err != nil {
			t.Fatal(err)
		}
		if b%7 == 6 {
			if err := e.RequestCheckpoint(b); err != nil {
				t.Fatal(err)
			}
		}
	}

	// Verify a sample of keys against the count-determined oracle.
	cfgD := cfg.WithDefaults()
	rng := rand.New(rand.NewSource(9))
	checked := 0
	for k, n := range pushCount {
		if rng.Intn(4) != 0 {
			continue
		}
		want := make([]float32, dim)
		state := make([]float32, cfgD.Optimizer.StateFloats(dim))
		cfgD.Initializer(k, want)
		cfgD.Optimizer.InitState(state)
		g := make([]float32, dim)
		for i := range g {
			g[i] = 1
		}
		for i := 0; i < n; i++ {
			cfgD.Optimizer.Apply(want, state, g)
		}
		got := make([]float32, dim)
		if err := e.Pull(batches, []uint64{k}, got); err != nil {
			t.Fatal(err)
		}
		for d := range got {
			if diff := got[d] - want[d]; diff > 1e-4 || diff < -1e-4 {
				t.Fatalf("key %d (pushed %d times): weight[%d] = %v, oracle %v", k, n, d, got[d], want[d])
			}
		}
		checked++
	}
	if checked < 20 {
		t.Fatalf("only %d keys checked", checked)
	}
	if done := e.CompletedCheckpoint(); done < 20 {
		t.Fatalf("checkpoints lagging under stress: completed %d", done)
	}
}
