package serve

import (
	"testing"
	"time"

	"openembedding/internal/core"
	"openembedding/internal/device"
	"openembedding/internal/obs"
	"openembedding/internal/optim"
	"openembedding/internal/pmem"
	"openembedding/internal/psengine"
	"openembedding/internal/simclock"
)

func newTestEngine(t testing.TB, dim, capacity, cache, shards int) *core.Engine {
	t.Helper()
	cfg := psengine.Config{
		Dim:          dim,
		Optimizer:    optim.NewSGD(0.1),
		Capacity:     capacity,
		CacheEntries: cache,
		Shards:       shards,
		Meter:        simclock.NewMeter(),
	}
	cfg = cfg.WithDefaults()
	payload := pmem.FloatBytes(cfg.EntryFloats())
	slots := cfg.Capacity * 4
	dev := pmem.NewDevice(pmem.ArenaLayout(payload, slots), device.NewTimedPMem(cfg.Meter))
	arena, err := pmem.NewArena(dev, payload, slots)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := core.New(cfg, arena)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { eng.Close() })
	return eng
}

// train drives one batch (pull, optional constant-gradient push, seal) and
// returns the pulled rows.
func train(t testing.TB, e *core.Engine, batch int64, keys []uint64, grad float32) []float32 {
	t.Helper()
	dim := e.Dim()
	dst := make([]float32, len(keys)*dim)
	if err := e.Pull(batch, keys, dst); err != nil {
		t.Fatalf("pull %d: %v", batch, err)
	}
	e.EndPullPhase(batch)
	e.WaitMaintenance()
	if grad != 0 {
		g := make([]float32, len(keys)*dim)
		for i := range g {
			g[i] = grad
		}
		if err := e.Push(batch, keys, g); err != nil {
			t.Fatalf("push %d: %v", batch, err)
		}
	}
	if err := e.EndBatch(batch); err != nil {
		t.Fatalf("end %d: %v", batch, err)
	}
	return dst
}

// poolRef replicates the handler's pooling arithmetic (sequential float32
// adds, multiply-by-reciprocal mean) over rows fetched one at a time.
func poolRef(t testing.TB, e *core.Engine, mean bool, offsets []uint32, keys []uint64) []float32 {
	t.Helper()
	dim := e.Dim()
	bags := len(offsets) - 1
	out := make([]float32, bags*dim)
	row := make([]float32, dim)
	for b := 0; b < bags; b++ {
		lo, hi := int(offsets[b]), int(offsets[b+1])
		dst := out[b*dim : (b+1)*dim]
		for j := lo; j < hi; j++ {
			if _, err := e.ServeRead(keys[j], row); err != nil {
				t.Fatal(err)
			}
			if j == lo {
				copy(dst, row)
				continue
			}
			for i := range dst {
				dst[i] += row[i]
			}
		}
		if mean && hi > lo {
			inv := 1 / float32(hi-lo)
			for i := range dst {
				dst[i] *= inv
			}
		}
	}
	return out
}

func TestPullBagsPooling(t *testing.T) {
	const dim = 8
	e := newTestEngine(t, dim, 256, 128, 2)
	keys := []uint64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	train(t, e, 0, keys, 1.0)

	reg := obs.NewRegistry()
	h := New(e, reg)
	if h.Dim() != dim {
		t.Fatalf("dim = %d", h.Dim())
	}

	// Bags: [1 2 3] [] [4] [5 6 7 8] [9 9] — duplicates and an empty bag.
	offsets := []uint32{0, 3, 3, 4, 8, 10}
	bagKeys := []uint64{1, 2, 3, 4, 5, 6, 7, 8, 9, 9}
	for _, mean := range []bool{false, true} {
		out := make([]float32, (len(offsets)-1)*dim)
		// Poison the buffer: the handler must fully overwrite it, including
		// the empty bag's zero vector.
		for i := range out {
			out[i] = 777
		}
		if err := h.PullBags(mean, offsets, bagKeys, out); err != nil {
			t.Fatal(err)
		}
		want := poolRef(t, e, mean, offsets, bagKeys)
		for i := range want {
			if out[i] != want[i] {
				t.Fatalf("mean=%v out[%d] = %v, want %v", mean, i, out[i], want[i])
			}
		}
		for i := dim; i < 2*dim; i++ { // bag 1 is empty
			if out[i] != 0 {
				t.Fatalf("empty bag served %v, want zero vector", out[dim:2*dim])
			}
		}
	}

	if got := reg.Counter("serve_requests").Value(); got != 2 {
		t.Fatalf("serve_requests = %d, want 2", got)
	}
	if got := reg.Counter("serve_keys").Value(); got != int64(2*len(bagKeys)) {
		t.Fatalf("serve_keys = %d, want %d", got, 2*len(bagKeys))
	}
	if reg.Counter("serve_snap_hits").Value() == 0 {
		t.Fatal("no snapshot hits recorded")
	}
}

// TestPullBagsZeroAllocs pins the whole serving request path — bag loop,
// snapshot reads, pooling, metrics — at zero heap allocations per request,
// the property CI also gates on the 26x128 shape (BenchmarkBagGather).
func TestPullBagsZeroAllocs(t *testing.T) {
	const dim = 16
	e := newTestEngine(t, dim, 1024, 512, 4)
	keys := make([]uint64, 128)
	for i := range keys {
		keys[i] = uint64(i + 1)
	}
	train(t, e, 0, keys, 1.0)

	reg := obs.NewRegistry() // metrics on: they must not allocate either
	h := New(e, reg)

	const bags = 64
	offsets := make([]uint32, bags+1)
	bagKeys := make([]uint64, 0, bags*2)
	for b := 0; b < bags; b++ {
		offsets[b] = uint32(len(bagKeys))
		bagKeys = append(bagKeys, keys[(2*b)%len(keys)], keys[(2*b+1)%len(keys)])
	}
	offsets[bags] = uint32(len(bagKeys))
	out := make([]float32, bags*dim)

	// Warm: the scratch pool must be populated and every key snapshot-hot.
	if err := h.PullBags(false, offsets, bagKeys, out); err != nil {
		t.Fatal(err)
	}
	if reg.Counter("serve_snap_hits").Value() != int64(len(bagKeys)) {
		t.Fatalf("warm-up keys not all snapshot-resident: %d/%d",
			reg.Counter("serve_snap_hits").Value(), len(bagKeys))
	}

	mean := false
	allocs := testing.AllocsPerRun(500, func() {
		mean = !mean
		if err := h.PullBags(mean, offsets, bagKeys, out); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("PullBags allocates %.1f/op, want 0", allocs)
	}
}

func TestRefreshSingleFlightAndCounters(t *testing.T) {
	e := newTestEngine(t, 8, 256, 32, 1)
	keys := make([]uint64, 64)
	for i := range keys {
		keys[i] = uint64(i + 1)
	}
	train(t, e, 0, keys, 0)
	reg := obs.NewRegistry()
	h := New(e, reg)

	// Push cold keys through the fallback so the refresh has promotion work.
	out := make([]float32, 8)
	for _, k := range keys {
		if err := h.PullBags(false, []uint32{0, 1}, []uint64{k}, out); err != nil {
			t.Fatal(err)
		}
	}
	if reg.Counter("serve_pmem_fallback").Value() == 0 {
		t.Fatal("expected PMem fallbacks with a 32-entry cache over 64 keys")
	}
	if err := h.Refresh(); err != nil {
		t.Fatal(err)
	}
	if got := reg.Counter("serve_refreshes").Value(); got != 1 {
		t.Fatalf("serve_refreshes = %d, want 1", got)
	}
	// A second refresh with no new observations is still a refresh pass.
	if err := h.Refresh(); err != nil {
		t.Fatal(err)
	}
	if got := reg.Counter("serve_refreshes").Value(); got != 2 {
		t.Fatalf("serve_refreshes = %d, want 2", got)
	}

	stop := h.StartRefresher(time.Millisecond)
	defer stop()
	deadline := time.Now().Add(2 * time.Second)
	for reg.Counter("serve_refreshes").Value() < 4 {
		if time.Now().After(deadline) {
			t.Fatal("background refresher never ran")
		}
		time.Sleep(time.Millisecond)
	}
	stop()
	stop() // idempotent
}
