package oricache

import (
	"testing"

	"openembedding/internal/checkpoint"
	"openembedding/internal/device"
	"openembedding/internal/optim"
	"openembedding/internal/pmem"
	"openembedding/internal/psengine"
	"openembedding/internal/simclock"
)

func testEngine(t *testing.T, cacheEntries int, ckptDir string) (*Engine, *simclock.Meter) {
	t.Helper()
	cfg := psengine.Config{
		Dim: 4, Optimizer: optim.NewSGD(0.1), Capacity: 256,
		CacheEntries: cacheEntries, Meter: simclock.NewMeter(),
	}.WithDefaults()
	payload := pmem.FloatBytes(cfg.EntryFloats())
	dev := pmem.NewDevice(pmem.ArenaLayout(payload, 256), device.NewTimedPMem(cfg.Meter))
	t.Cleanup(func() { dev.Close() })
	arena, err := pmem.NewArena(dev, payload, 256)
	if err != nil {
		t.Fatal(err)
	}
	e, err := New(cfg, arena, Options{CheckpointDir: ckptDir})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { e.Close() })
	return e, cfg.Meter
}

// TestPushReordersLRU pins the black-box behaviour the paper critiques:
// pushes count as cache accesses and reorder the LRU, unlike PMem-OE.
func TestPushReordersLRU(t *testing.T) {
	e, _ := testEngine(t, 2, "")
	dst := make([]float32, 4)
	grads := []float32{1, 1, 1, 1}

	// Cache: [2(front), 1].
	if err := e.Pull(0, []uint64{1}, dst); err != nil {
		t.Fatal(err)
	}
	if err := e.Pull(0, []uint64{2}, dst); err != nil {
		t.Fatal(err)
	}
	// Push key 1: in a black-box cache this is an access, so key 1 moves to
	// the front and key 2 becomes the LRU victim.
	if err := e.Push(0, []uint64{1}, grads); err != nil {
		t.Fatal(err)
	}
	if err := e.EndBatch(0); err != nil {
		t.Fatal(err)
	}
	// Insert key 3: evicts key 2 (not key 1).
	if err := e.Pull(1, []uint64{3}, dst); err != nil {
		t.Fatal(err)
	}
	missesBefore := e.Stats().Misses
	// Key 1 still cached (a hit); key 2 must miss.
	if err := e.Pull(1, []uint64{1}, dst); err != nil {
		t.Fatal(err)
	}
	if got := e.Stats().Misses; got != missesBefore {
		t.Fatalf("key 1 missed (evicted despite push-reorder): misses %d -> %d", missesBefore, got)
	}
	if err := e.Pull(1, []uint64{2}, dst); err != nil {
		t.Fatal(err)
	}
	if got := e.Stats().Misses; got != missesBefore+1 {
		t.Fatalf("key 2 did not miss: misses %d -> %d", missesBefore, got)
	}
}

// TestGlobalSyncCharged: Ori-Cache's list lock charges the
// globally-serialized category — the cost class that degrades with GPUs.
func TestGlobalSyncCharged(t *testing.T) {
	e, m := testEngine(t, 8, "")
	dst := make([]float32, 8)
	if err := e.Pull(0, []uint64{1, 2}, dst); err != nil {
		t.Fatal(err)
	}
	if m.Ops(simclock.GlobalSync) < 2 {
		t.Fatalf("GlobalSync ops = %d, want one per access", m.Ops(simclock.GlobalSync))
	}
}

// TestCheckpointIncludesEvictedDirtyEntries: an entry dirtied, then evicted
// to PMem before the checkpoint, must still appear in the delta.
func TestCheckpointIncludesEvictedDirtyEntries(t *testing.T) {
	dir := t.TempDir()
	e, _ := testEngine(t, 1, dir) // cache of one: constant eviction
	dst := make([]float32, 4)
	grads := []float32{1, 1, 1, 1}
	for _, k := range []uint64{1, 2, 3} {
		if err := e.Pull(0, []uint64{k}, dst); err != nil {
			t.Fatal(err)
		}
		if err := e.Push(0, []uint64{k}, grads); err != nil {
			t.Fatal(err)
		}
	}
	if err := e.EndBatch(0); err != nil {
		t.Fatal(err)
	}
	if err := e.RequestCheckpoint(0); err != nil {
		t.Fatal(err)
	}
	delta, err := checkpoint.ReadDelta(dir, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(delta) != 3 {
		t.Fatalf("delta has %d entries, want all 3 dirtied keys", len(delta))
	}
	// Values must be the post-push values even for evicted entries.
	for _, ent := range delta {
		want := make([]float32, 4)
		psengine.Config{Dim: 4, Optimizer: optim.NewSGD(0.1)}.WithDefaults().Initializer(ent.Key, want)
		if ent.Payload[0] != want[0]-0.1 {
			t.Fatalf("key %d payload %v, want init-0.1", ent.Key, ent.Payload[0])
		}
	}
}

func TestStatsTrackTiers(t *testing.T) {
	e, _ := testEngine(t, 1, "")
	dst := make([]float32, 4)
	for _, k := range []uint64{1, 2, 1} { // 1 is evicted by 2, then re-misses
		if err := e.Pull(0, []uint64{k}, dst); err != nil {
			t.Fatal(err)
		}
	}
	st := e.Stats()
	if st.Entries != 2 || st.Evictions == 0 || st.Misses == 0 {
		t.Fatalf("stats = %+v", st)
	}
	if st.CachedEntries != 1 {
		t.Fatalf("cached = %d, want 1", st.CachedEntries)
	}
}
