package core

import (
	"math/rand"
	"runtime"
	"sort"
	"testing"
	"time"

	"openembedding/internal/device"
	"openembedding/internal/pmem"
	"openembedding/internal/psengine"
	"openembedding/internal/simclock"
)

// TestSortPosByKey checks the hand-rolled run sort against the library sort:
// same (key asc, position asc) order on random inputs of every small size and
// a few large ones, including heavily duplicated key sets. Both sort paths
// are exercised — the packed uint64 fast path (keys < 2^32) and the indirect
// fallback (at least one wide key) — and must produce the identical order.
func TestSortPosByKey(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	sizes := make([]int, 0, 40)
	for n := 0; n <= 33; n++ {
		sizes = append(sizes, n)
	}
	sizes = append(sizes, 100, 1000, 4096)
	var buf []uint64
	for _, wide := range []bool{false, true} {
		for _, n := range sizes {
			for trial := 0; trial < 4; trial++ {
				keys := make([]uint64, n)
				for i := range keys {
					keys[i] = uint64(rng.Intn(1 + n/4)) // dense: lots of duplicates
				}
				if wide && n > 0 {
					// Push one key past 32 bits so the packed fast path
					// rejects the batch and the indirect sort runs.
					keys[rng.Intn(n)] |= 1 << 40
				}
				got := make([]int32, n)
				want := make([]int32, n)
				for i := range got {
					got[i] = int32(i)
					want[i] = int32(i)
				}
				buf = sortPosByKey(got, keys, buf)
				sort.Slice(want, func(a, b int) bool {
					if keys[want[a]] != keys[want[b]] {
						return keys[want[a]] < keys[want[b]]
					}
					return want[a] < want[b]
				})
				for i := range got {
					if got[i] != want[i] {
						t.Fatalf("wide=%v n=%d trial=%d: pos[%d] = %d, want %d (keys %v)", wide, n, trial, i, got[i], want[i], keys)
					}
				}
			}
		}
	}
}

// TestDuplicateKeyBatchOnePMemRead pins the dedup contract of the run sweep:
// a batch repeating one PMem-resident key 1000 times serves every position
// with identical rows, reads PMem exactly once, and counts the 999 fan-out
// copies as DRAM hits — Hits+Misses still equals the batch length.
func TestDuplicateKeyBatchOnePMemRead(t *testing.T) {
	const dim, reps = 4, 1000
	e := newTestEngine(t, testConfig(dim, 64, 1)) // cache of one entry

	// Create key 1, then key 2 (evicting key 1 to PMem).
	runBatch(t, e, 0, []uint64{1}, nil)
	base := runBatch(t, e, 1, []uint64{1}, constGrads(1, dim, 1))
	for i := range base {
		base[i] -= 0.1 // SGD lr=0.1, grad=1: the post-push weights
	}
	runBatch(t, e, 2, []uint64{2}, nil)

	before := e.Stats()
	keys := make([]uint64, reps)
	for i := range keys {
		keys[i] = 1
	}
	dst := make([]float32, reps*dim)
	if err := e.Pull(3, keys, dst); err != nil {
		t.Fatal(err)
	}
	for p := 0; p < reps; p++ {
		for d := 0; d < dim; d++ {
			if got, want := dst[p*dim+d], base[d]; got != want {
				t.Fatalf("position %d dim %d: got %v, want %v", p, d, got, want)
			}
		}
	}
	after := e.Stats()
	if got := after.PMemReads - before.PMemReads; got != 1 {
		t.Fatalf("PMem reads for %d duplicates of one key: %d, want 1", reps, got)
	}
	if got := after.Misses - before.Misses; got != 1 {
		t.Fatalf("misses: %d, want 1", got)
	}
	if got := after.Hits - before.Hits; got != reps-1 {
		t.Fatalf("hits (duplicate fan-out): %d, want %d", got, reps-1)
	}
	e.EndPullPhase(3)
	e.WaitMaintenance()
	if err := e.EndBatch(3); err != nil {
		t.Fatal(err)
	}

	// Warm case: the key is now in DRAM; every position is a plain hit.
	mid := e.Stats()
	if err := e.Pull(4, keys, dst); err != nil {
		t.Fatal(err)
	}
	warm := e.Stats()
	if got := warm.Hits - mid.Hits; got != reps {
		t.Fatalf("warm duplicate hits: %d, want %d", got, reps)
	}
	if warm.PMemReads != after.PMemReads {
		t.Fatalf("warm duplicate pull read PMem: %d -> %d", after.PMemReads, warm.PMemReads)
	}

	// Cold-create case: a never-seen key repeated serves every position from
	// the one freshly created entry.
	if err := e.Pull(4, []uint64{99, 99, 99}, dst[:3*dim]); err != nil {
		t.Fatal(err)
	}
	for p := 1; p < 3; p++ {
		for d := 0; d < dim; d++ {
			if dst[p*dim+d] != dst[d] {
				t.Fatalf("created duplicate position %d differs from position 0", p)
			}
		}
	}
	if got := e.Stats().Misses - warm.Misses; got != 0 {
		t.Fatalf("first-touch creation counted as miss: %d", got)
	}
}

// TestRunChargeEquivalence is the satellite-1 pinned-counter test: the
// batched ChargeN/ChargeReadN/ChargeWriteN accounting must charge exactly the
// virtual time and op counts of the per-key accounting it replaced. The
// expectations below ARE the per-key formulas (n keys -> n probe charges of
// IndexProbeCost each, one DRAM read per served position, ...), so equality
// proves the batching changed nothing.
func TestRunChargeEquivalence(t *testing.T) {
	const dim, n = 8, 50
	for _, shards := range []int{1, 8} {
		cfg := testConfig(dim, 1024, 256)
		cfg.Shards = shards
		meter := cfg.Meter
		e := newTestEngine(t, cfg)
		entryFloats := e.Config().EntryFloats()

		keys := make([]uint64, n)
		for i := range keys {
			keys[i] = uint64(i)
		}
		dst := make([]float32, n*dim)

		// Cold pull: every key is a first-touch creation.
		s0 := meter.Snapshot()
		if err := e.Pull(0, keys, dst); err != nil {
			t.Fatal(err)
		}
		d := meter.Snapshot().Sub(s0)
		dramW := device.DRAM().WriteCost(4 * entryFloats)
		dramR := device.DRAM().ReadCost(4 * dim)
		shardsTouched := int64(countShards(e, keys))
		checkCat(t, shards, "cold pull", d, simclock.Compute, n*psengine.IndexProbeCost, n)
		// One LockCost from Engine.Pull plus one per shard that created
		// entries (createMissing's exclusive-lock charge).
		checkCat(t, shards, "cold pull", d, simclock.LockSync, time.Duration(1+shardsTouched)*psengine.LockCost, 1+shardsTouched)
		checkCat(t, shards, "cold pull", d, simclock.DRAMWrite, n*dramW, n)
		checkCat(t, shards, "cold pull", d, simclock.DRAMRead, n*dramR, n)
		checkCat(t, shards, "cold pull", d, simclock.PMemRead, 0, 0)

		// Warm pull with duplicates: 2n positions over n DRAM-resident keys.
		dup := make([]uint64, 0, 2*n)
		dup = append(dup, keys...)
		dup = append(dup, keys...)
		big := make([]float32, 2*n*dim)
		s1 := meter.Snapshot()
		if err := e.Pull(1, dup, big); err != nil {
			t.Fatal(err)
		}
		d = meter.Snapshot().Sub(s1)
		checkCat(t, shards, "warm pull", d, simclock.Compute, 2*n*psengine.IndexProbeCost, 2*n)
		checkCat(t, shards, "warm pull", d, simclock.LockSync, psengine.LockCost, 1)
		checkCat(t, shards, "warm pull", d, simclock.DRAMRead, 2*n*dramR, 2*n)
		checkCat(t, shards, "warm pull", d, simclock.DRAMWrite, 0, 0)

		// Push: per key one probe + one optimizer apply + one DRAM store.
		e.EndPullPhase(1)
		e.WaitMaintenance()
		s2 := meter.Snapshot()
		if err := e.Push(1, keys, constGrads(n, dim, 1)); err != nil {
			t.Fatal(err)
		}
		d = meter.Snapshot().Sub(s2)
		checkCat(t, shards, "push", d, simclock.Compute, n*(psengine.IndexProbeCost+optimizerCost(dim)), 2*n)
		checkCat(t, shards, "push", d, simclock.LockSync, psengine.LockCost, 1)
		checkCat(t, shards, "push", d, simclock.DRAMWrite, n*device.DRAM().WriteCost(4*dim), n)
		e.Close()
	}
}

func countShards(e *Engine, keys []uint64) int {
	seen := map[int]bool{}
	for _, k := range keys {
		seen[e.shardIndex(k)] = true
	}
	return len(seen)
}

func checkCat(t *testing.T, shards int, phase string, d simclock.Snapshot, c simclock.Category, wantNS time.Duration, wantOps int64) {
	t.Helper()
	if got := d.Total(c); got != wantNS {
		t.Errorf("shards=%d %s: %v total = %v, want %v", shards, phase, c, got, wantNS)
	}
	if got := d.OpCount(c); got != wantOps {
		t.Errorf("shards=%d %s: %v ops = %d, want %d", shards, phase, c, got, wantOps)
	}
}

// TestPMemChargeEquivalentAcrossCoalescing pins the determinism half of the
// coalescing contract: the virtual PMem-read charge is per record regardless
// of how many records each physical ranged read covered, so a fully
// fragmented slot layout and a fully contiguous one charge identical virtual
// time for the same key set.
func TestPMemChargeEquivalentAcrossCoalescing(t *testing.T) {
	const dim, nKeys = 4, 16
	pull := func(interleave bool) (simclock.Snapshot, []float32) {
		cfg := testConfig(dim, 256, 1) // cache of one: everything flushes to PMem
		meter := cfg.Meter
		e := newTestEngine(t, cfg)
		defer e.Close()
		// interleave=false creates keys 0..15 in one batch: flush order is
		// access order, so slots follow key order and the later sorted pull
		// coalesces into one chain. interleave=true creates evens then odds,
		// so consecutive keys sit ~8 slots apart and no chain forms.
		if interleave {
			for b, parity := range []uint64{0, 1} {
				keys := make([]uint64, 0, nKeys/2)
				for k := parity; k < nKeys; k += 2 {
					keys = append(keys, k)
				}
				runBatch(t, e, int64(b), keys, nil)
			}
		} else {
			keys := make([]uint64, nKeys)
			for i := range keys {
				keys[i] = uint64(i)
			}
			runBatch(t, e, 0, keys, nil)
		}
		// Evict the cache's one resident entry far from the probe set.
		runBatch(t, e, 2, []uint64{1 << 40}, nil)

		keys := make([]uint64, nKeys)
		for i := range keys {
			keys[i] = uint64(i)
		}
		dst := make([]float32, nKeys*dim)
		s := meter.Snapshot()
		if err := e.Pull(3, keys, dst); err != nil {
			t.Fatal(err)
		}
		if got := e.Stats().PMemReads; got != nKeys {
			t.Fatalf("interleave=%v: PMemReads = %d, want %d", interleave, got, nKeys)
		}
		return meter.Snapshot().Sub(s), dst
	}

	dContig, wContig := pull(false)
	dFrag, wFrag := pull(true)
	for i := range wContig {
		if wContig[i] != wFrag[i] {
			t.Fatalf("weights diverge at float %d: contiguous %v, fragmented %v", i, wContig[i], wFrag[i])
		}
	}
	if dContig != dFrag {
		t.Fatalf("virtual charges depend on slot adjacency:\ncontiguous %v\nfragmented %v", dContig, dFrag)
	}
	payload := pmem.FloatBytes(testConfig(dim, 1, 1).WithDefaults().EntryFloats())
	want := time.Duration(nKeys) * device.PMem().ReadCost(payload)
	if got := dContig.Total(simclock.PMemRead); got != want {
		t.Fatalf("PMem read charge = %v, want %v (%d records)", got, want, nKeys)
	}
	if got := dContig.OpCount(simclock.PMemRead); got != nKeys {
		t.Fatalf("PMem read ops = %d, want %d", got, nKeys)
	}
}

// TestRunCoalescingAcrossFragmentation drives the chain grouping in servePMem
// across every adjacency shape one batch can contain — singleton chains,
// mid-run breaks, and one maximal chain — and checks the served rows against
// an oracle engine that reads each key individually.
func TestRunCoalescingAcrossFragmentation(t *testing.T) {
	const dim, nKeys = 4, 32
	build := func() *Engine {
		cfg := testConfig(dim, 256, 1)
		e := newTestEngine(t, cfg)
		// Three creation waves shuffle key-vs-slot order: keys {0,3,6,...},
		// then {1,4,7,...}, then {2,5,8,...}. A sorted pull of any key subset
		// then crosses fragmentation boundaries between the waves' slot
		// ranges while staying adjacent within a wave.
		for b := int64(0); b < 3; b++ {
			keys := make([]uint64, 0, nKeys/3+1)
			for k := uint64(b); k < nKeys; k += 3 {
				keys = append(keys, k)
			}
			runBatch(t, e, b, keys, constGrads(len(keys), dim, float32(b+1)/8))
		}
		runBatch(t, e, 3, []uint64{1 << 40}, nil) // evict the last resident
		return e
	}

	batched := build()
	defer batched.Close()
	oracle := build()
	defer oracle.Close()

	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 8; trial++ {
		n := 1 + rng.Intn(nKeys)
		keys := make([]uint64, n)
		for i := range keys {
			keys[i] = uint64(rng.Intn(nKeys))
		}
		dst := make([]float32, n*dim)
		if err := batched.Pull(4, keys, dst); err != nil {
			t.Fatal(err)
		}
		for i, k := range keys {
			row := make([]float32, dim)
			if err := oracle.Pull(4, []uint64{k}, row); err != nil {
				t.Fatal(err)
			}
			for d := 0; d < dim; d++ {
				if dst[i*dim+d] != row[d] {
					t.Fatalf("trial %d key %d dim %d: batched %v, oracle %v", trial, k, d, dst[i*dim+d], row[d])
				}
			}
		}
	}
}

// TestPullPushZeroAllocs pins the hot-path allocation budget. The fan-out
// frame lives in pooled scratch and the run sweep reuses its lanes, so the
// only thing steady-state Pull and Push can allocate is a helper goroutine:
// `go f.run(sid)` costs one allocation per helper actually spawned, and the
// engine holds GOMAXPROCS-1 helper tokens (taken at New). The test sets
// GOMAXPROCS itself rather than inheriting the host's: at 1 no helper is
// ever spawned and the budget is zero at every shard count; at 2 and 8 it
// is at most the helpers a request can spawn, min(shards, GOMAXPROCS)-1.
func TestPullPushZeroAllocs(t *testing.T) {
	if lockRankDebug {
		t.Skip("-tags oedebug: runtime lock-rank checks allocate by design")
	}
	if raceEnabled {
		t.Skip("-race: detector instrumentation allocates")
	}
	const dim, batchLen = 16, 64
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 2, 8} {
		runtime.GOMAXPROCS(procs)
		for _, shards := range []int{1, 8} {
			budget := float64(min(shards, procs) - 1)
			cfg := psengine.Config{
				Dim:          dim,
				Capacity:     4096,
				CacheEntries: 2048,
				Shards:       shards,
			}
			e := newTestEngine(t, cfg)
			keys := make([]uint64, batchLen)
			rng := rand.New(rand.NewSource(3))
			for i := range keys {
				keys[i] = uint64(rng.Intn(1024))
			}
			dst := make([]float32, batchLen*dim)
			grads := constGrads(batchLen, dim, 0.1)

			// Warm: create every entry, populate the scratch/goroutine pools, and
			// pre-grow the access queues past their doubling thresholds.
			batch := int64(0)
			for ; batch < 8; batch++ {
				runBatch(t, e, batch, keys, grads)
			}

			if avg := testing.AllocsPerRun(100, func() {
				if err := e.Pull(batch, keys, dst); err != nil {
					t.Fatal(err)
				}
			}); avg > budget {
				t.Errorf("GOMAXPROCS=%d shards=%d: Pull allocates %v/op, want <= %v", procs, shards, avg, budget)
			}
			e.EndPullPhase(batch)
			e.WaitMaintenance()
			if avg := testing.AllocsPerRun(100, func() {
				if err := e.Push(batch, keys, grads); err != nil {
					t.Fatal(err)
				}
			}); avg > budget {
				t.Errorf("GOMAXPROCS=%d shards=%d: Push allocates %v/op, want <= %v", procs, shards, avg, budget)
			}
			e.Close()
		}
	}
}
