package serve

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
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
	return newTestEngineCfg(t, psengine.Config{
		Dim:          dim,
		Optimizer:    optim.NewSGD(0.1),
		Capacity:     capacity,
		CacheEntries: cache,
		Shards:       shards,
		Meter:        simclock.NewMeter(),
	})
}

func newTestEngineCfg(t testing.TB, cfg psengine.Config) *core.Engine {
	t.Helper()
	cfg = cfg.WithDefaults()
	payload := pmem.FloatBytes(cfg.EntryFloats())
	slots := cfg.Capacity * 4
	dev := pmem.NewDevice(pmem.ArenaLayout(payload, slots), device.NewTimedPMem(cfg.Meter))
	t.Cleanup(func() { dev.Close() })
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

// poolRef is the handler's request loop as it was before keys were resolved a
// block at a time, kept as the oracle: one ServeRead per key in key order —
// the first key of a bag into the output row, the rest into a scratch row and
// added with a plain loop — multiply-by-reciprocal mean. It returns the
// pooled rows and how many keys each source served.
func poolRef(t testing.TB, e *core.Engine, mean bool, offsets []uint32, keys []uint64) ([]float32, [core.ServeInit + 1]int64) {
	t.Helper()
	dim := e.Dim()
	bags := len(offsets) - 1
	out := make([]float32, bags*dim)
	scratch := make([]float32, dim)
	var tally [core.ServeInit + 1]int64
	for b := 0; b < bags; b++ {
		lo, hi := int(offsets[b]), int(offsets[b+1])
		dst := out[b*dim : (b+1)*dim]
		for j := lo; j < hi; j++ {
			row := dst
			if j > lo {
				row = scratch
			}
			src, err := e.ServeRead(keys[j], row)
			if err != nil {
				t.Fatal(err)
			}
			tally[src]++
			if j > lo {
				for i := range dst {
					dst[i] += row[i]
				}
			}
		}
		if mean && hi > lo {
			inv := 1 / float32(hi-lo)
			for i := range dst {
				dst[i] *= inv
			}
		}
	}
	return out, tally
}

// TestPullBagsBlockReadMatchesOldLoop drives seeded requests over every kind
// of key the handler can meet — clean snapshot hits, rows dirtied by a push
// whose batch has not ended, PMem-resident keys, unknown keys — in empty,
// one-key and multi-key bags, some longer than a block so they straddle
// block boundaries wherever they start, sum and mean; the output bits and
// all four per-source counters must equal the old loop's.
func TestPullBagsBlockReadMatchesOldLoop(t *testing.T) {
	const dim = 8
	e := newTestEngine(t, dim, 1024, 64, 4)
	var trained, dirty, unknown []uint64
	for k := uint64(1); k <= 256; k++ {
		trained = append(trained, k)
	}
	for lo := 0; lo < len(trained); lo += 32 { // 64 stay cached, 192 go to PMem
		train(t, e, int64(lo/32), trained[lo:lo+32], 0.5)
	}
	reg := obs.NewRegistry()
	h := New(e, reg)

	// Push without EndBatch: these rows are cached, published and dirty.
	dirty = trained[len(trained)-12:]
	buf := make([]float32, len(dirty)*dim)
	if err := e.Pull(8, dirty, buf); err != nil {
		t.Fatal(err)
	}
	e.EndPullPhase(8)
	e.WaitMaintenance()
	for i := range buf {
		buf[i] = 0.25
	}
	if err := e.Push(8, dirty, buf); err != nil {
		t.Fatal(err)
	}

	rng := rand.New(rand.NewSource(20261003))
	for k := uint64(5000); k < 5040; k++ {
		unknown = append(unknown, k)
	}

	counters := []string{"serve_snap_hits", "serve_dram_fallback", "serve_pmem_fallback", "serve_init_served"}
	var seen [core.ServeInit + 1]int64
	for req := 0; req < 40; req++ {
		var offsets []uint32
		var keys []uint64
		for b, bags := 0, 1+rng.Intn(60); b < bags; b++ {
			offsets = append(offsets, uint32(len(keys)))
			n := rng.Intn(5) // empty, one-key and short bags
			if rng.Intn(8) == 0 {
				n = serveBlock - 3 + rng.Intn(2*serveBlock)
			}
			for ; n > 0; n-- {
				pool := trained
				if c := rng.Intn(10); c == 0 {
					pool = unknown
				} else if c == 1 {
					pool = dirty
				}
				keys = append(keys, pool[rng.Intn(len(pool))])
			}
		}
		offsets = append(offsets, uint32(len(keys)))
		mean := req%2 == 1

		var before [core.ServeInit + 1]int64
		for i, name := range counters {
			before[i] = reg.Counter(name).Value()
		}
		out := make([]float32, (len(offsets)-1)*dim)
		for i := range out {
			out[i] = 777 // the handler must overwrite every float
		}
		if err := h.PullBags(mean, offsets, keys, out); err != nil {
			t.Fatal(err)
		}
		want, tally := poolRef(t, e, mean, offsets, keys)
		for i := range want {
			if math.Float32bits(out[i]) != math.Float32bits(want[i]) {
				t.Fatalf("request %d (mean %v): out[%d] = %v, the old loop has %v", req, mean, i, out[i], want[i])
			}
		}
		for i, name := range counters {
			if got := reg.Counter(name).Value() - before[i]; got != tally[i] {
				t.Fatalf("request %d: %s grew by %d, the old loop counts %d", req, name, got, tally[i])
			}
			seen[i] += tally[i]
		}
	}
	for i, name := range counters {
		if seen[i] == 0 {
			t.Fatalf("no key was served as %s: the test lost a case", name)
		}
	}
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
		want, _ := poolRef(t, e, mean, offsets, bagKeys)
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

// TestPullBagsNoTornReads holds core's TestServeNoTornReads oracle to whole
// gathers: SGD at lr·g = 0.5 makes every legal row after m pushes exactly
// w0 − 0.5m in float32, and a one-key bag pools to its key's row, so every
// row of every answer must bit-match some complete version — while a writer
// pushes every key and republishes every batch, for long enough that both
// slabs of every shard are rewritten many times under the gathers' pins.
func TestPullBagsNoTornReads(t *testing.T) {
	for _, shards := range []int{1, 8} {
		shards := shards
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			t.Parallel()
			const (
				dim     = 8
				nkeys   = 96
				batches = 300
				readers = 3
				bags    = 2*serveBlock + 5 // a gather spans blocks
				lr      = 0.5
			)
			reg := obs.NewRegistry()
			e := newTestEngineCfg(t, psengine.Config{
				Dim:          dim,
				Optimizer:    optim.NewSGD(lr),
				Capacity:     4096,
				CacheEntries: 256,
				Shards:       shards,
				Obs:          reg,
			})
			keys := make([]uint64, nkeys)
			for i := range keys {
				keys[i] = uint64(i*977 + 13) // spread across shards
			}
			w0 := train(t, e, 0, keys, 0)
			// version[ki] maps the bits of element 0 after m pushes to m; a row
			// is legal when every element is its own w0 less m halves.
			version := make([]map[uint32]int, nkeys)
			for ki := range keys {
				version[ki] = make(map[uint32]int, batches+1)
				v := w0[ki*dim]
				for m := 0; m <= batches; m++ {
					version[ki][math.Float32bits(v)] = m
					v -= lr
				}
			}
			legal := func(ki int, row []float32) bool {
				m, ok := version[ki][math.Float32bits(row[0])]
				for i := 0; ok && i < dim; i++ {
					v := w0[ki*dim+i]
					for n := 0; n < m; n++ {
						v -= lr
					}
					ok = math.Float32bits(row[i]) == math.Float32bits(v)
				}
				return ok
			}

			h := New(e, reg)
			offsets := make([]uint32, bags+1)
			for i := range offsets {
				offsets[i] = uint32(i)
			}
			done := make(chan struct{})
			var gathers atomic.Int64
			var wg sync.WaitGroup
			for r := 0; r < readers; r++ {
				wg.Add(1)
				go func(r int) {
					defer wg.Done()
					rng := rand.New(rand.NewSource(int64(r + 1)))
					kis := make([]int, bags)
					req := make([]uint64, bags)
					out := make([]float32, bags*dim)
					for {
						select {
						case <-done:
							return
						default:
						}
						for i := range kis {
							kis[i] = rng.Intn(nkeys)
							req[i] = keys[kis[i]]
						}
						if err := h.PullBags(false, offsets, req, out); err != nil {
							t.Errorf("reader %d: %v", r, err)
							return
						}
						for i, ki := range kis {
							if row := out[i*dim : (i+1)*dim]; !legal(ki, row) {
								t.Errorf("reader %d: torn row for key %d: %v", r, req[i], row)
								return
							}
						}
						gathers.Add(1)
					}
				}(r)
			}
			// The writer keeps no further ahead than a batch a gather, so the
			// two interleave on any number of cores, and gathers once itself
			// between its push and its republish: every row dirty, every key
			// down the locked path, which the readers alone might never catch.
			grads := make([]float32, nkeys*dim)
			for i := range grads {
				grads[i] = 1
			}
			buf := make([]float32, nkeys*dim)
			write := func(b int64) error {
				if err := e.Pull(b, keys, buf); err != nil {
					return err
				}
				e.EndPullPhase(b)
				if err := e.Push(b, keys, grads); err != nil {
					return err
				}
				if err := h.PullBags(false, offsets, keys[:bags], buf[:bags*dim]); err != nil {
					return err
				}
				for ki := 0; ki < bags; ki++ {
					if row := buf[ki*dim : (ki+1)*dim]; !legal(ki, row) {
						return fmt.Errorf("dirty-window gather: torn row for key %d: %v", keys[ki], row)
					}
				}
				return e.EndBatch(b)
			}
			var err error
			for b := int64(1); b <= batches && err == nil && !t.Failed(); b++ {
				for gathers.Load() < b && !t.Failed() {
					runtime.Gosched()
				}
				if err = write(b); err != nil {
					err = fmt.Errorf("batch %d: %w", b, err)
				}
			}
			close(done)
			wg.Wait()
			if err != nil {
				t.Fatal(err)
			}

			if n := e.SnapshotPins(); n != 0 {
				t.Errorf("%d pins left after the readers returned", n)
			}
			recycled := reg.Counter("engine_snap_recycled").Value()
			cloned := reg.Counter("engine_snap_cloned").Value()
			if recycled < batches/4 {
				t.Errorf("%d republishes recycled a slab (%d cloned one): the gathers never let the slabs take turns", recycled, cloned)
			}
			if reg.Counter("serve_snap_hits").Value() == 0 || reg.Counter("serve_dram_fallback").Value() == 0 {
				t.Errorf("snapshot hits %d, locked DRAM reads %d: a path went unexercised",
					reg.Counter("serve_snap_hits").Value(), reg.Counter("serve_dram_fallback").Value())
			}
			t.Logf("republishes: recycled=%d cloned=%d", recycled, cloned)
		})
	}
}

// corruptRecords flips one payload bit of every record in e's arena, in the
// volatile image only: whatever key the locked path reads from PMem next
// fails its checksum.
func corruptRecords(t *testing.T, e *core.Engine) {
	t.Helper()
	a := e.Arena()
	var slots []uint32
	if err := a.Scan(func(r pmem.Record) error {
		slots = append(slots, r.Slot)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	dev := a.Device()
	for _, slot := range slots {
		off := a.SlotOffset(slot) + 24 // payload starts after the 24-byte slot header
		var b [1]byte
		if err := dev.Read(off, b[:]); err != nil {
			t.Fatal(err)
		}
		b[0] ^= 0x40
		if err := dev.Write(off, b[:]); err != nil {
			t.Fatal(err)
		}
	}
}

// TestPullBagsReleasesPins: a gather's pins are gone when it returns, however
// it returns — answered or failed by the engine — and a gather that
// SetEngine overtakes mid-flight finishes on the engine it pinned and
// releases that engine's pins, not the new one's. A leaked pin would make
// every later republish of that slab a clone.
func TestPullBagsReleasesPins(t *testing.T) {
	const (
		dim     = 8
		shards  = 4
		gateKey = 9000 // nobody trains it: reading it runs the initializer
	)
	// The initializer is the one call the locked path makes with no lock
	// held; armed, it parks a gather between its pin and its unpin.
	var armed atomic.Bool
	entered, resume := make(chan struct{}), make(chan struct{})
	xavier := psengine.XavierInit(dim)
	cfg := psengine.Config{
		Dim:          dim,
		Optimizer:    optim.NewSGD(0.1),
		Capacity:     1024,
		CacheEntries: 32,
		Shards:       shards,
		Initializer: func(k uint64, dst []float32) {
			if k == gateKey && armed.Load() {
				entered <- struct{}{}
				<-resume
			}
			xavier(k, dst)
		},
	}
	e := newTestEngineCfg(t, cfg)
	keys := make([]uint64, 128)
	for i := range keys {
		keys[i] = uint64(i + 1)
	}
	for lo := 0; lo < len(keys); lo += 32 { // 32 stay cached, 96 go to PMem
		train(t, e, int64(lo/32), keys[lo:lo+32], 0.5)
	}
	h := New(e, nil)
	offsets := make([]uint32, len(keys)+1)
	for i := range offsets {
		offsets[i] = uint32(i)
	}
	out := make([]float32, len(keys)*dim)
	pins := func(step string, eng *core.Engine, want int) {
		t.Helper()
		if got := eng.SnapshotPins(); got != want {
			t.Fatalf("%s: %d pins held, want %d", step, got, want)
		}
	}

	if err := h.PullBags(false, offsets, keys, out); err != nil {
		t.Fatal(err)
	}
	pins("after an answered gather", e, 0)

	// A gather parked mid-flight holds one pin a shard, and the engine is
	// swapped under it.
	armed.Store(true)
	parked := make(chan error, 1)
	parkedOut := make([]float32, 2*dim)
	go func() { parked <- h.PullBags(false, offsets[:3], []uint64{keys[0], gateKey}, parkedOut) }()
	<-entered
	armed.Store(false)
	pins("with a gather parked", e, shards)

	e2 := newTestEngineCfg(t, cfg)
	train(t, e2, 0, keys[:32], 0.25)
	h.SetEngine(e2)
	if err := h.PullBags(false, offsets[:33], keys[:32], out[:32*dim]); err != nil {
		t.Fatal(err)
	}
	pins("the new engine, after a gather of its own", e2, 0)
	pins("the old engine, its gather still parked", e, shards)
	want := make([]float32, 2*dim)
	if _, err := e.ServeRead(keys[0], want[:dim]); err != nil {
		t.Fatal(err)
	}
	xavier(gateKey, want[dim:])
	close(resume)
	if err := <-parked; err != nil {
		t.Fatalf("the parked gather: %v", err)
	}
	for i := range want {
		if math.Float32bits(parkedOut[i]) != math.Float32bits(want[i]) {
			t.Fatalf("the parked gather answered %v, the engine it pinned holds %v", parkedOut, want)
		}
	}
	pins("the old engine, after its gather returned", e, 0)
	pins("the new engine, after the old one's gather returned", e2, 0)

	// Last, because it wrecks the store: every PMem-resident key now fails
	// its checksum on the locked path, and the gather fails with it.
	h.SetEngine(e)
	corruptRecords(t, e)
	if err := h.PullBags(false, offsets, keys, out); !errors.Is(err, pmem.ErrCorrupt) {
		t.Fatalf("gather over corrupt records: %v, want ErrCorrupt", err)
	}
	pins("after a gather the engine failed", e, 0)
}
