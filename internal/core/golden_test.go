package core

import (
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"os"
	"runtime"
	"testing"

	"openembedding/internal/device"
	"openembedding/internal/optim"
	"openembedding/internal/pmem"
	"openembedding/internal/psengine"
	"openembedding/internal/simclock"
)

// coldGolden is everything a cold stream's run leaves behind that the
// group-commit drain must not move: the decisions (Stats), the simulated
// time (every meter category's total and op count), the checkpoint the
// stream completed, and the state a crash at the end recovers.
type coldGolden struct {
	stats     psengine.Stats
	completed int64
	meter     string // "cat=ns/ops" per charged category, in category order
	recovered uint64 // FNV-1a over the recovered (key, version, row bits), keys ascending
}

// The shards=1 values below were captured from the commit before the
// group-commit drain (PR 13's tree) by running this test with
// OE_GOLDEN_PRINT=1; the stream, not the engine, is what they are a function
// of. The shards=8 values were re-captured when a batch's rounds began to
// share one flush-before-overwrite threshold (Engine.roundThreshold): the
// entries born in the batch after a checkpoint request are now flushed
// before their overwrite on every schedule, as they always were with one
// shard — which is why the recovered state is the shards=1 one. The
// "/maint=1" in each name is the one background maintainer an engine runs.
var coldGoldens = map[string]coldGolden{
	"shards=1/maint=1": {stats: psengine.Stats{Entries: 4088, CachedEntries: 256, Hits: 6382, Misses: 20498, PMemReads: 29541, PMemWrites: 26959, Evictions: 32896, CheckpointsDone: 2}, completed: 44,
		meter: "dram_read=516942/6382 dram_write=5162752/60032 pmem_read=15165972/49562 pmem_write=2669227/26962 lock_sync=9460/473 compute=2608290/139838 ", recovered: 0x25f29fd2466d2879},
	"shards=8/maint=1": {stats: psengine.Stats{Entries: 4088, CachedEntries: 256, Hits: 6375, Misses: 20505, PMemReads: 29330, PMemWrites: 26792, Evictions: 32706, CheckpointsDone: 2}, completed: 44,
		meter: "dram_read=516375/6375 dram_write=5146412/59842 pmem_read=15109974/49379 pmem_write=2652694/26795 lock_sync=29540/1477 compute=2605440/139648 ", recovered: 0x25f29fd2466d2879},
}

// runColdStream drives a fixed seeded cold stream — a key space 16x the
// cache, two pulls and two pushes per batch as two loaders would issue
// them, checkpoints requested mid-stream — then crashes the device and
// recovers it.
func runColdStream(t *testing.T, shards int) coldGolden {
	t.Helper()
	const (
		dim      = 8
		keyspace = 4096
		draws    = 192
		batches  = 70
	)
	meter := simclock.NewMeter()
	cfg := psengine.Config{
		Dim:          dim,
		Optimizer:    optim.NewAdaGrad(0.05),
		Capacity:     keyspace,
		CacheEntries: keyspace / 16,
		Meter:        meter,
		Shards:       shards,
	}.WithDefaults()
	payload := pmem.FloatBytes(cfg.EntryFloats())
	slots := cfg.Capacity * 3
	dev := pmem.NewDevice(pmem.ArenaLayout(payload, slots), device.NewTimedPMem(meter))
	t.Cleanup(func() { dev.Close() })
	arena, err := pmem.NewArena(dev, payload, slots)
	if err != nil {
		t.Fatal(err)
	}
	e, err := New(cfg, arena)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(20260927))
	keys := [2][]uint64{make([]uint64, draws), make([]uint64, draws)}
	grads := make([]float32, draws*dim)
	dst := make([]float32, draws*dim)
	for b := int64(0); b < batches; b++ {
		for l := range keys {
			for i := range keys[l] {
				keys[l][i] = 1 + uint64(rng.Intn(keyspace-1))
			}
			if err := e.Pull(b, keys[l], dst); err != nil {
				t.Fatalf("pull batch %d: %v", b, err)
			}
		}
		e.EndPullPhase(b)
		for l := range keys {
			for i := range grads {
				grads[i] = float32(rng.NormFloat64()) * 0.1
			}
			if err := e.Push(b, keys[l], grads); err != nil {
				t.Fatalf("push batch %d: %v", b, err)
			}
		}
		if err := e.EndBatch(b); err != nil {
			t.Fatalf("end batch %d: %v", b, err)
		}
		if b == 19 || b == 44 {
			if err := e.RequestCheckpoint(b); err != nil {
				t.Fatal(err)
			}
		}
	}
	e.WaitMaintenance()
	g := coldGolden{stats: e.Stats(), completed: e.CompletedCheckpoint()}
	snap := meter.Snapshot()
	for _, c := range simclock.Categories() {
		if snap.OpCount(c) != 0 {
			g.meter += fmt.Sprintf("%v=%d/%d ", c, int64(snap.Total(c)), snap.OpCount(c))
		}
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}

	dev.Crash()
	rcfg := cfg
	rcfg.Meter = nil
	r, at, err := Recover(rcfg, dev)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if at != g.completed {
		t.Fatalf("recovered to checkpoint %d, engine had completed %d", at, g.completed)
	}
	rows, more, err := r.ExportRange(func(uint64) bool { return true }, math.MinInt64, 0, keyspace+1)
	if err != nil || more {
		t.Fatalf("export of the recovered engine: more=%v err=%v", more, err)
	}
	h := fnv.New64a()
	var w [8]byte
	put := func(v uint64) {
		for i := range w {
			w[i] = byte(v >> (8 * i))
		}
		h.Write(w[:])
	}
	for _, me := range rows {
		put(me.Key)
		put(uint64(me.Version))
		for _, f := range me.Data {
			put(uint64(math.Float32bits(f)))
		}
	}
	g.recovered = h.Sum64()
	return g
}

// TestColdStreamMatchesParentGoldens pins the maintenance drain's
// behaviour to the per-record engine it replaced: same decisions, same
// simulated time, same durable state, at every shard count.
func TestColdStreamMatchesParentGoldens(t *testing.T) {
	for _, shards := range []int{1, 8} {
		name := fmt.Sprintf("shards=%d/maint=1", shards)
		t.Run(name, func(t *testing.T) {
			got := runColdStream(t, shards)
			if os.Getenv("OE_GOLDEN_PRINT") != "" {
				fmt.Printf("\t%q: {stats: psengine.Stats{Entries: %d, CachedEntries: %d, Hits: %d, Misses: %d, PMemReads: %d, PMemWrites: %d, Evictions: %d, CheckpointsDone: %d}, completed: %d,\n\t\tmeter: %q, recovered: %#x},\n",
					name, got.stats.Entries, got.stats.CachedEntries, got.stats.Hits, got.stats.Misses,
					got.stats.PMemReads, got.stats.PMemWrites, got.stats.Evictions, got.stats.CheckpointsDone,
					got.completed, got.meter, got.recovered)
				return
			}
			want, ok := coldGoldens[name]
			if !ok {
				t.Fatalf("no golden for %s", name)
			}
			if got != want {
				t.Errorf("cold stream diverged from the per-record engine\n got %+v\nwant %+v", got, want)
			}
		})
	}
}

// TestColdStreamRepeats: what a cold stream leaves behind is a function of
// the stream at every shard count — with two CPUs, so that a batch's shard
// rounds (the maintainer and helping waiters) really do overlap each other
// and each other's finalizers.
func TestColdStreamRepeats(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	for _, shards := range []int{2, 8} {
		t.Run(fmt.Sprintf("shards=%d/maint=1", shards), func(t *testing.T) {
			first := runColdStream(t, shards)
			for i := 1; i < 8; i++ {
				if got := runColdStream(t, shards); got != first {
					t.Fatalf("run %d of the same stream differs from run 0\n got %+v\nwant %+v", i, got, first)
				}
			}
		})
	}
}
