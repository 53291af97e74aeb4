package core

import (
	"math/rand"
	"sync"
	"testing"

	"openembedding/internal/optim"
	"openembedding/internal/pmem"
	"openembedding/internal/psengine"
	"openembedding/internal/workload"
)

// TestPullMissStatsCountedOnce is the regression test for the double-counted
// miss path: a Pull miss reads the record from PMem to serve the request,
// and maintenance then promotes the same entry with a second physical read.
// That promotion is the second half of one logical fetch, so PMemReads must
// advance once per miss — not twice. A push-triggered inline promotion, by
// contrast, is a genuine extra fetch (the entry was evicted after the pull)
// and is counted.
func TestPullMissStatsCountedOnce(t *testing.T) {
	e := newTestEngine(t, testConfig(2, 16, 1)) // cache of one entry

	// Batch 0: create key 1. Maintenance flushes it (its data version,
	// batch-1 = -1, is <= the empty queue's newest checkpoint, -1).
	runBatch(t, e, 0, []uint64{1}, nil)
	// Batch 1: create key 2; capacity 1 evicts key 1 (clean, no flush).
	runBatch(t, e, 1, []uint64{2}, nil)
	// Batch 2: pull key 1 — a PMem miss. Maintenance promotes it without
	// re-counting the read, and evicts dirty key 2 (one flush).
	runBatch(t, e, 2, []uint64{1}, nil)

	st := e.Stats()
	want := psengine.Stats{
		Entries:       2,
		CachedEntries: 1,
		Hits:          2, // the two creations
		Misses:        1, // batch 2's PMem-served pull
		PMemReads:     1, // ONE read for the miss+promotion pair
		PMemWrites:    2, // key 1 at batch 0, key 2's eviction at batch 2
		Evictions:     2,
	}
	if st != want {
		t.Fatalf("stats after miss sequence:\n got %+v\nwant %+v", st, want)
	}

	// A push of an evicted entry re-reads PMem for real: counted.
	if err := e.Push(3, []uint64{2}, constGrads(1, 2, 1)); err != nil {
		t.Fatal(err)
	}
	if err := e.EndBatch(3); err != nil {
		t.Fatal(err)
	}
	if got := e.Stats().PMemReads; got != 2 {
		t.Fatalf("PMemReads after inline push promotion = %d, want 2", got)
	}
}

// TestShardDeterminismAcrossShardCounts pins the tentpole's correctness
// claim: sharding changes lock granularity and eviction partitioning, but
// flush/promote round-trips are bit-exact, so Shards:1 and Shards:8 train
// identical weights and recover identically after a simulated crash.
func TestShardDeterminismAcrossShardCounts(t *testing.T) {
	const (
		keySpace = 200
		batches  = 25
		ckptAt   = 15
	)
	run := func(shards int) (map[uint64][]float32, int64, *pmem.Device, psengine.Config) {
		cfg := testConfig(4, 1024, 32)
		cfg.Optimizer = optim.NewAdaGrad(0.05) // stateful: state must round-trip too
		cfg.Shards = shards
		e := newTestEngine(t, cfg)
		rng := rand.New(rand.NewSource(123)) // same stream for every shard count

		allKeys := make([]uint64, keySpace)
		for i := range allKeys {
			allKeys[i] = uint64(i)
		}
		for b := int64(0); b < batches; b++ {
			keys := allKeys
			if b > 0 {
				// Random subset; batch 0 touched every key, so no entry is
				// born after the checkpoint (births next to the checkpoint
				// boundary are recovered or not depending on eviction
				// order, which sharding legitimately changes).
				n := 4 + rng.Intn(12)
				seen := map[uint64]bool{}
				keys = make([]uint64, 0, n)
				for len(keys) < n {
					k := uint64(rng.Intn(keySpace))
					if !seen[k] {
						seen[k] = true
						keys = append(keys, k)
					}
				}
			}
			grads := make([]float32, len(keys)*cfg.Dim)
			for i := range grads {
				grads[i] = float32(rng.NormFloat64())
			}
			runBatch(t, e, b, keys, grads)
			if b == ckptAt {
				if err := e.RequestCheckpoint(b); err != nil {
					t.Fatal(err)
				}
			}
		}
		out := make(map[uint64][]float32, keySpace)
		for _, k := range allKeys {
			buf := make([]float32, cfg.Dim)
			if err := e.Pull(batches, []uint64{k}, buf); err != nil {
				t.Fatalf("shards=%d: pull key %d: %v", shards, k, err)
			}
			out[k] = buf
		}
		completed := e.CompletedCheckpoint()
		dev := e.Arena().Device()
		e.Close()
		dev.Crash()
		return out, completed, dev, cfg
	}

	w1, c1, dev1, cfg1 := run(1)
	w8, c8, dev8, cfg8 := run(8)
	if c1 != int64(ckptAt) || c8 != int64(ckptAt) {
		t.Fatalf("completed checkpoints: shards=1 %d, shards=8 %d, want %d", c1, c8, ckptAt)
	}
	for k, a := range w1 {
		b := w8[k]
		for d := range a {
			if a[d] != b[d] {
				t.Fatalf("trained key %d[%d]: shards=1 %v, shards=8 %v", k, d, a[d], b[d])
			}
		}
	}

	rec1, ck1, err := Recover(cfg1, dev1)
	if err != nil {
		t.Fatal(err)
	}
	defer rec1.Close()
	rec8, ck8, err := Recover(cfg8, dev8)
	if err != nil {
		t.Fatal(err)
	}
	defer rec8.Close()
	if ck1 != ck8 || ck1 != int64(ckptAt) {
		t.Fatalf("recovered checkpoints differ: %d vs %d", ck1, ck8)
	}
	if rec1.Stats().Entries != rec8.Stats().Entries || rec1.Stats().Entries != keySpace {
		t.Fatalf("recovered entries: shards=1 %d, shards=8 %d, want %d",
			rec1.Stats().Entries, rec8.Stats().Entries, keySpace)
	}
	for k := uint64(0); k < keySpace; k++ {
		a := make([]float32, cfg1.Dim)
		b := make([]float32, cfg8.Dim)
		if err := rec1.Pull(ck1+1, []uint64{k}, a); err != nil {
			t.Fatal(err)
		}
		if err := rec8.Pull(ck8+1, []uint64{k}, b); err != nil {
			t.Fatal(err)
		}
		for d := range a {
			if a[d] != b[d] {
				t.Fatalf("recovered key %d[%d]: shards=1 %v, shards=8 %v", k, d, a[d], b[d])
			}
		}
	}
}

// TestShardedStressCrossShardWithCheckpoints drives the sharded engine from
// 8 concurrent workers whose Zipfian batches straddle every shard, with
// EndBatch and RequestCheckpoint running between phases — under -race in
// CI. Correctness oracle: AdaGrad with a constant gradient is
// order-independent, so final weights depend only on per-key push counts.
func TestShardedStressCrossShardWithCheckpoints(t *testing.T) {
	cfg := psengine.Config{
		Dim:          8,
		Capacity:     8192,
		CacheEntries: 256,
		Shards:       8,
	}
	e := newTestEngine(t, cfg)
	dim := 8

	const (
		workers = 8
		batches = 24
	)
	sampler := make([]workload.KeySampler, workers)
	for w := range sampler {
		sampler[w] = workload.NewTableIISkew(4096, int64(100+w))
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
		if b%5 == 4 {
			if err := e.RequestCheckpoint(b); err != nil {
				t.Fatal(err)
			}
		}
	}

	// Verify a sample of keys against the count-determined oracle.
	cfgD := cfg.WithDefaults()
	rng := rand.New(rand.NewSource(11))
	checked := 0
	for k, n := range pushCount {
		if rng.Intn(5) != 0 {
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
	if done := e.CompletedCheckpoint(); done < 14 {
		t.Fatalf("checkpoints lagging under stress: completed %d", done)
	}

	// Every entry must live in exactly the shard its key hashes to.
	total := 0
	for _, s := range e.shards {
		s.mu.RLock()
		for _, k := range s.index.keys(nil) {
			if e.shardFor(k) != s {
				t.Fatalf("key %d stored in shard %d, hashes to %d", k, s.id, e.shardIndex(k))
			}
			total++
		}
		s.mu.RUnlock()
	}
	if int64(total) != e.Stats().Entries {
		t.Fatalf("shard indexes hold %d entries, counter says %d", total, e.Stats().Entries)
	}
}
