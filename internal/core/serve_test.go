package core

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"

	"openembedding/internal/obs"
	"openembedding/internal/optim"
	"openembedding/internal/psengine"
)

// TestServeReadTiers exercises every ServeRead tier and checks the values
// each returns against the engine's own Pull.
func TestServeReadTiers(t *testing.T) {
	dim := 8
	e := newTestEngine(t, testConfig(dim, 256, 16))
	keys := make([]uint64, 64)
	for i := range keys {
		keys[i] = uint64(i + 1)
	}
	want := runBatch(t, e, 0, keys, nil)
	e.EnableServeSnapshots()
	if !e.ServeSnapshotsEnabled() {
		t.Fatal("serving not enabled")
	}

	// Every trained key must serve its pulled value, from some tier.
	dst := make([]float32, dim)
	var bySource [4]int
	for i, k := range keys {
		src, err := e.ServeRead(k, dst)
		if err != nil {
			t.Fatalf("serve %d: %v", k, err)
		}
		bySource[src]++
		for j := 0; j < dim; j++ {
			if dst[j] != want[i*dim+j] {
				t.Fatalf("key %d served %v, pulled %v (source %d)", k, dst[:dim], want[i*dim:(i+1)*dim], src)
			}
		}
	}
	if bySource[ServeSnap] == 0 {
		t.Fatal("no key served from the snapshot")
	}
	if bySource[ServePMem] == 0 {
		t.Fatal("no key served from PMem (cache holds 16 of 64; evicted keys must fall back)")
	}
	if bySource[ServeInit] != 0 {
		t.Fatal("trained key served from the initializer")
	}

	// A PMem-served key is promoted by the next refresh and then serves
	// lock-free.
	// Keep the highest cold key: the refresh promotes drained keys in
	// sorted order, so the highest lands most-recently-used and survives
	// the capacity re-enforcement that follows promotion.
	var cold uint64
	for _, k := range keys {
		if src, _ := e.ServeRead(k, dst); src == ServePMem {
			cold = k
		}
	}
	if cold == 0 {
		t.Fatal("no cold key found")
	}
	if err := e.RefreshServeSnapshots(); err != nil {
		t.Fatal(err)
	}
	if src, _ := e.ServeRead(cold, dst); src != ServeSnap {
		t.Fatalf("key %d served from %d after refresh, want snapshot", cold, src)
	}

	// A push dirties the served row: the next read falls back (post-push
	// value), and the batch boundary re-publishes it to the snapshot.
	hot := cold
	pre := make([]float32, dim)
	if _, err := e.ServeRead(hot, pre); err != nil {
		t.Fatal(err)
	}
	buf := make([]float32, dim)
	if err := e.Pull(1, []uint64{hot}, buf); err != nil {
		t.Fatal(err)
	}
	e.EndPullPhase(1)
	e.WaitMaintenance()
	if err := e.Push(1, []uint64{hot}, constGrads(1, dim, 1.0)); err != nil {
		t.Fatal(err)
	}
	src, err := e.ServeRead(hot, dst)
	if err != nil {
		t.Fatal(err)
	}
	if src == ServeSnap {
		t.Fatal("dirty key still served from the snapshot")
	}
	for j := 0; j < dim; j++ {
		if want := pre[j] - 0.1; dst[j] != want { // SGD lr=0.1, g=1
			t.Fatalf("dirty fallback served %v, want %v", dst[j], want)
		}
	}
	if err := e.EndBatch(1); err != nil {
		t.Fatal(err)
	}
	if src, _ := e.ServeRead(hot, dst); src != ServeSnap {
		t.Fatalf("pushed key served from %d after batch end, want snapshot", src)
	}
	for j := 0; j < dim; j++ {
		if want := pre[j] - 0.1; dst[j] != want {
			t.Fatalf("snapshot row %v after push, want %v", dst[j], want)
		}
	}
}

// TestServeInitDoesNotCreateEntries: serving an unknown key answers the
// deterministic initializer row and must not mutate training state.
func TestServeInitDoesNotCreateEntries(t *testing.T) {
	dim := 8
	e := newTestEngine(t, testConfig(dim, 128, 32))
	runBatch(t, e, 0, []uint64{1, 2, 3}, nil)
	e.EnableServeSnapshots()
	before := e.Stats().Entries

	dst := make([]float32, dim)
	src, err := e.ServeRead(999, dst)
	if err != nil {
		t.Fatal(err)
	}
	if src != ServeInit {
		t.Fatalf("unknown key served from %d, want initializer", src)
	}
	if got := e.Stats().Entries; got != before {
		t.Fatalf("serve created entries: %d -> %d", before, got)
	}
	// The served row must equal what training materializes for that key.
	want := runBatch(t, e, 1, []uint64{999}, nil)
	for j := 0; j < dim; j++ {
		if dst[j] != want[j] {
			t.Fatalf("init row %v, trained first pull %v", dst[:dim], want[:dim])
		}
	}
}

// TestServeReadZeroAllocs pins the serve fast path at zero heap
// allocations per read — the property the oevet allocfree analyzer
// enforces statically.
func TestServeReadZeroAllocs(t *testing.T) {
	dim := 16
	e := newTestEngine(t, testConfig(dim, 256, 128))
	keys := make([]uint64, 32)
	for i := range keys {
		keys[i] = uint64(i + 1)
	}
	runBatch(t, e, 0, keys, constGrads(len(keys), dim, 1.0))
	e.EnableServeSnapshots()

	dst := make([]float32, dim)
	// All keys are cache-resident and clean: every read must be a snapshot
	// hit before the allocation count means anything.
	for _, k := range keys {
		if src, err := e.ServeRead(k, dst); err != nil || src != ServeSnap {
			t.Fatalf("key %d: source %d err %v, want clean snapshot hit", k, src, err)
		}
	}
	i := 0
	allocs := testing.AllocsPerRun(2000, func() {
		k := keys[i%len(keys)]
		i++
		if _, err := e.ServeRead(k, dst); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("ServeRead fast path allocates %.1f/op, want 0", allocs)
	}
}

// TestServeNoTornReads is the pinned interleave test: a serve-path read
// concurrent with pushes of the same keys must return a complete pre- or
// post-push row bit-exactly — never a torn mix — whichever tier serves it.
// SGD with a constant gradient makes every legal row enumerable: after m
// pushes the row is exactly w0 - m*lr (computed element-wise in float32),
// so any observed row must bit-match one of the precomputed versions. Half the
// readers read key by key (ServeRead), half the way serve.Handler gathers:
// pin every shard's snapshot, resolve a block of keys, read the resolved rows
// in place while the writer republishes every batch and both slabs of every
// shard are rewritten many times over, unpin.
func TestServeNoTornReads(t *testing.T) {
	for _, shards := range []int{1, 8} {
		shards := shards
		t.Run(map[int]string{1: "shards=1", 8: "shards=8"}[shards], func(t *testing.T) {
			t.Parallel()
			const (
				dim     = 8
				nkeys   = 32
				batches = 300
				reads   = 30_000 // per reader
				readers = 4
				gather  = 8   // keys a reader resolves under one set of pins
				lr      = 0.5 // lr*g = 0.5: exactly representable, like the engine's own op
			)
			reg := obs.NewRegistry()
			e := newTestEngine(t, psengine.Config{
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
			w0 := runBatch(t, e, 0, keys, nil)

			// expect[k][m] is the exact row after m pushes, replicating
			// optim.SGD.Apply's float32 arithmetic; verIdx[k] maps element
			// 0's bit pattern to the candidate versions, so a read verifies
			// in O(1).
			expect := make([][][]float32, nkeys)
			verIdx := make([]map[uint32][]int, nkeys)
			for ki := range keys {
				vers := make([][]float32, batches+1)
				vers[0] = append([]float32(nil), w0[ki*dim:(ki+1)*dim]...)
				for m := 1; m <= batches; m++ {
					row := append([]float32(nil), vers[m-1]...)
					for i := range row {
						row[i] -= lr * 1.0
					}
					vers[m] = row
				}
				expect[ki] = vers
				idx := make(map[uint32][]int, batches+1)
				for m, row := range vers {
					b := math.Float32bits(row[0])
					idx[b] = append(idx[b], m)
				}
				verIdx[ki] = idx
			}
			matches := func(ki int, row []float32) bool {
				for _, m := range verIdx[ki][math.Float32bits(row[0])] {
					ver := expect[ki][m]
					same := true
					for i := range row {
						if math.Float32bits(row[i]) != math.Float32bits(ver[i]) {
							same = false
							break
						}
					}
					if same {
						return true
					}
				}
				return false
			}

			e.EnableServeSnapshots()
			done := make(chan struct{})
			var bySource [4]atomic.Int64
			var started sync.WaitGroup // writer waits for first reads
			var wg sync.WaitGroup
			for r := 0; r < readers; r++ {
				wg.Add(1)
				started.Add(1)
				go func(r int) {
					defer wg.Done()
					var startOnce sync.Once
					defer startOnce.Do(started.Done) // also on early error exit
					rng := rand.New(rand.NewSource(int64(r + 1)))
					dst := make([]float32, dim)
					var pins SnapPins
					var kis [gather]int
					var block [gather]uint64
					var rows [gather][]float32
					// Readers run for the writer's whole push sequence (so
					// reads genuinely interleave with pushes of the same
					// keys) and for at least `reads` iterations.
					for n := 0; ; n += gather {
						select {
						case <-done:
							if n >= reads {
								return
							}
						default:
						}
						for i := range kis {
							kis[i] = rng.Intn(nkeys)
							block[i] = keys[kis[i]]
						}
						pinned := r%2 == 1
						if pinned {
							e.PinSnapshots(&pins)
							pins.Rows(block[:], rows[:])
						}
						for i, ki := range kis {
							row, src := dst, ServeSnap
							var err error
							switch {
							case !pinned:
								src, err = e.ServeRead(keys[ki], dst)
							case rows[i] != nil:
								row = rows[i]
							default:
								src, err = e.ServeReadLocked(keys[ki], dst)
							}
							if err != nil {
								t.Errorf("reader %d: %v", r, err)
								return
							}
							bySource[src].Add(1)
							if !matches(ki, row) {
								t.Errorf("reader %d: torn row for key %d (source %d): %v",
									r, keys[ki], src, append([]float32(nil), row...))
								return
							}
						}
						pins.Unpin()
						startOnce.Do(started.Done)
					}
				}(r)
			}
			started.Wait()

			// A refresher churns snapshot republication alongside training.
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					select {
					case <-done:
						return
					default:
						if err := e.RefreshServeSnapshots(); err != nil {
							t.Errorf("refresh: %v", err)
							return
						}
					}
				}
			}()

			grads := constGrads(nkeys, dim, 1.0)
			buf := make([]float32, nkeys*dim)
			dst := make([]float32, dim)
			for b := int64(1); b <= batches; b++ {
				if err := e.Pull(b, keys, buf); err != nil {
					t.Fatalf("pull %d: %v", b, err)
				}
				e.EndPullPhase(b)
				if err := e.Push(b, keys, grads); err != nil {
					t.Fatalf("push %d: %v", b, err)
				}
				// Deterministic dirty-window reads: the rows are pushed but
				// not yet republished, so these land on the locked fallback
				// path (on a single-core scheduler the concurrent readers
				// alone might never catch this window).
				ki := int(b) % nkeys
				src, err := e.ServeRead(keys[ki], dst)
				if err != nil {
					t.Fatalf("dirty-window read %d: %v", b, err)
				}
				bySource[src].Add(1)
				if !matches(ki, dst) {
					t.Fatalf("dirty-window read of key %d (source %d) torn: %v", keys[ki], src, dst)
				}
				if err := e.EndBatch(b); err != nil {
					t.Fatalf("end %d: %v", b, err)
				}
			}
			close(done)
			wg.Wait()

			if bySource[ServeSnap].Load() == 0 {
				t.Error("no read ever hit the lock-free snapshot path")
			}
			if bySource[ServeDRAM].Load()+bySource[ServePMem].Load() == 0 {
				t.Error("no read ever exercised the locked fallback path")
			}
			if bySource[ServeInit].Load() != 0 {
				t.Error("trained key served from the initializer")
			}
			if n := e.SnapshotPins(); n != 0 {
				t.Errorf("%d pins left after the readers returned", n)
			}
			recycled, cloned := snapCounts(reg)
			if recycled < batches/4 {
				t.Errorf("%d republishes recycled a slab (%d cloned one): the readers never let the slabs take turns", recycled, cloned)
			}
			t.Logf("reads: snap=%d dram=%d pmem=%d; republishes: recycled=%d cloned=%d",
				bySource[ServeSnap].Load(), bySource[ServeDRAM].Load(), bySource[ServePMem].Load(), recycled, cloned)
		})
	}
}

// TestServeDirtyBitmap pins the one-bit-per-row dirty marks: pushes of
// different stripes mark rows that share a bitmap word concurrently (run it
// under -race), every row counts once however often it is marked, the
// incremental rebuild re-copies exactly the marked rows into a snapshot with
// a clean bitmap, and a full rebuild starts clean too.
func TestServeDirtyBitmap(t *testing.T) {
	const (
		dim     = 4
		nkeys   = 96 // three bitmap words
		markers = 8
	)
	e := newTestEngine(t, testConfig(dim, 256, 128))
	keys := make([]uint64, nkeys)
	for i := range keys {
		keys[i] = uint64(i + 1)
	}
	runBatch(t, e, 0, keys, nil)
	e.EnableServeSnapshots()
	s := e.shards[0]
	old := s.snap.Load()
	if old.Len() != nkeys || len(old.dirty) != nkeys/32 {
		t.Fatalf("snapshot of %d rows with %d dirty words, want %d and %d", old.Len(), len(old.dirty), nkeys, nkeys/32)
	}

	// Every entry moves; only two keys in three are marked — each by several
	// goroutines at once, under the locks a push holds.
	marked := func(k uint64) bool { return k%3 != 0 }
	want := 0
	s.mu.Lock()
	for _, k := range keys {
		s.entryOf(k).weights(dim)[0] = 1000 + float32(k)
		if marked(k) {
			want++
		}
	}
	s.mu.Unlock()
	var wg sync.WaitGroup
	for g := 0; g < markers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			s.mu.RLock()
			defer s.mu.RUnlock()
			for i := range keys {
				k := keys[(i+g*7)%nkeys]
				if !marked(k) {
					continue
				}
				stripe := &s.stripes[k%uint64(len(s.stripes))]
				stripe.Lock()
				s.markServeDirty(s.entryOf(k))
				stripe.Unlock()
			}
		}(g)
	}
	wg.Wait()
	if got := old.dirtyCount.Load(); got != int64(want) {
		t.Fatalf("dirtyCount = %d after %d goroutines marked %d distinct rows", got, markers, want)
	}
	dst := make([]float32, dim)
	for _, k := range keys {
		if src, _ := e.ServeRead(k, dst); (src == ServeSnap) == marked(k) {
			t.Fatalf("key %d (marked %v) served from source %d", k, marked(k), src)
		}
	}

	clean := func(step string, sn *shardSnap) {
		t.Helper()
		if n := sn.dirtyCount.Load(); n != 0 {
			t.Fatalf("%s: dirtyCount = %d", step, n)
		}
		for w := range sn.dirty {
			if set := sn.dirty[w].Load(); set != 0 {
				t.Fatalf("%s: dirty word %d = %#x", step, w, set)
			}
		}
	}
	s.mu.Lock()
	s.rebuildSnapLocked()
	s.mu.Unlock()
	inc := s.snap.Load()
	if inc == old || inc.epoch != old.epoch {
		t.Fatalf("rebuild of a membership-stable hot set was not incremental (epoch %d -> %d)", old.epoch, inc.epoch)
	}
	clean("incremental rebuild", inc)
	for _, k := range keys {
		r, _ := inc.Row(k)
		got, prev := inc.At(r)[0], old.At(r)[0]
		if marked(k) && got != 1000+float32(k) {
			t.Fatalf("marked key %d not re-copied: %v", k, got)
		}
		if !marked(k) && got != prev {
			t.Fatalf("unmarked key %d re-copied: %v, was %v", k, got, prev)
		}
	}

	// Marks on the new snapshot, then a membership change: the full rebuild
	// picks up every row and carries no mark over.
	s.mu.Lock()
	s.markServeDirty(s.entryOf(keys[0]))
	s.markServeDirty(s.entryOf(keys[40]))
	s.snapStale = true
	s.rebuildSnapLocked()
	s.mu.Unlock()
	full := s.snap.Load()
	if full.epoch == inc.epoch {
		t.Fatal("stale hot set rebuilt incrementally")
	}
	clean("full rebuild", full)
	for _, k := range keys {
		if src, _ := e.ServeRead(k, dst); src != ServeSnap || dst[0] != 1000+float32(k) {
			t.Fatalf("key %d after full rebuild: source %d, row %v", k, src, dst)
		}
	}
}

// newServeTestEngine returns a one-shard serving engine over keys 1..nkeys,
// all cached, with the registry its snapshot counters land in.
func newServeTestEngine(t *testing.T, dim, nkeys int) (*Engine, []uint64, *obs.Registry) {
	t.Helper()
	cfg := testConfig(dim, 4*nkeys, 2*nkeys)
	cfg.Obs = obs.NewRegistry()
	e := newTestEngine(t, cfg)
	keys := make([]uint64, nkeys)
	for i := range keys {
		keys[i] = uint64(i + 1)
	}
	runBatch(t, e, 0, keys, nil)
	e.EnableServeSnapshots()
	return e, keys, cfg.Obs
}

// snapCounts reads the incremental-republish counters.
func snapCounts(reg *obs.Registry) (recycled, cloned int64) {
	return reg.Counter("engine_snap_recycled").Value(), reg.Counter("engine_snap_cloned").Value()
}

// TestServeRepublishUnion pins what a recycled slab has to be brought up to
// date with. A spare missed the round that retired it as well as the round
// that rewrites it: with row A pushed in round N only and row B in round N+1
// only, the slab republished at N+1 is the one retired at N and must take A
// and B, and the one republished at N+2 — retired at N+1 — must take B. A
// rebuild that re-copies only the published snapshot's own dirty rows serves
// A's pre-push row, clean, after N+1, and B's after N+2.
func TestServeRepublishUnion(t *testing.T) {
	const dim = 8
	e, keys, reg := newServeTestEngine(t, dim, 96)
	a, b, c := keys[3], keys[40], keys[70] // three bitmap words
	w0 := make([]float32, dim)
	if _, err := e.ServeRead(a, w0); err != nil {
		t.Fatal(err)
	}

	check := func(step string) {
		t.Helper()
		got, want := make([]float32, dim), make([]float32, dim)
		for _, k := range keys {
			src, err := e.ServeRead(k, got)
			if err != nil {
				t.Fatal(err)
			}
			if src != ServeSnap {
				t.Fatalf("%s: key %d served from source %d, want a clean snapshot hit", step, k, src)
			}
			if _, err := e.ServeReadLocked(k, want); err != nil {
				t.Fatal(err)
			}
			for i := range want {
				if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
					t.Fatalf("%s: snapshot row of key %d = %v, the engine holds %v", step, k, got, want)
				}
			}
		}
	}
	runBatch(t, e, 1, []uint64{a}, constGrads(1, dim, 1)) // round N: the first of the epoch, a clone
	check("after publish N")
	runBatch(t, e, 2, []uint64{b}, constGrads(1, dim, 1))
	check("after publish N+1")
	runBatch(t, e, 3, []uint64{c}, constGrads(1, dim, 1))
	check("after publish N+2")

	got := make([]float32, dim)
	if _, err := e.ServeRead(a, got); err != nil {
		t.Fatal(err)
	}
	if want := w0[0] - 0.1; got[0] != want { // SGD lr=0.1, g=1
		t.Fatalf("row A = %v after its push, want %v: the oracle read a stale row too", got[0], want)
	}
	if recycled, cloned := snapCounts(reg); recycled != 2 || cloned != 1 {
		t.Fatalf("recycled %d, cloned %d republishes; want 2 and 1, or the union was never exercised", recycled, cloned)
	}

	// A round that dirtied nothing republishes nothing and leaves the spare's
	// frozen marks standing: the next round still owes it row C.
	runBatch(t, e, 4, keys[:8], nil)
	runBatch(t, e, 5, []uint64{a}, constGrads(1, dim, 1))
	check("after an idle round and publish N+3")
	if recycled, cloned := snapCounts(reg); recycled != 3 || cloned != 1 {
		t.Fatalf("recycled %d, cloned %d after the idle round; want 3 and 1", recycled, cloned)
	}
}

// TestServePinnedRowsSurviveRepublish: a row resolved under a pin is valid
// until the pin is released. Every round a new reader pins what is published
// and resolves every key, then a batch pushes every key and republishes — so
// each rebuild finds the snapshot it would recycle held by the reader of the
// round before, has to clone instead, and every reader's rows stay, bit for
// bit, what it resolved. A rebuild that skips the pins check rewrites the
// first reader's slab in the second round. Once the readers let go the slabs
// take turns again; one that never does has cost its one clone and no more.
func TestServePinnedRowsSurviveRepublish(t *testing.T) {
	const (
		dim    = 8
		rounds = 4
	)
	e, keys, reg := newServeTestEngine(t, dim, 64)
	type reader struct {
		pins SnapPins
		rows [][]float32
		want []float32
	}
	readers := make([]*reader, rounds)
	verify := func(step string) {
		t.Helper()
		for ri, r := range readers {
			if r == nil {
				continue
			}
			for i, row := range r.rows {
				for j, v := range row {
					if math.Float32bits(v) != math.Float32bits(r.want[i*dim+j]) {
						t.Fatalf("%s: reader %d's pinned row of key %d is %v, it resolved %v",
							step, ri, keys[i], row, r.want[i*dim:(i+1)*dim])
					}
				}
			}
		}
	}
	grads := constGrads(len(keys), dim, 1)
	for n := 0; n < rounds; n++ {
		r := &reader{rows: make([][]float32, len(keys))}
		e.PinSnapshots(&r.pins)
		r.pins.Rows(keys, r.rows)
		for i, row := range r.rows {
			if row == nil {
				t.Fatalf("round %d: key %d is not a clean snapshot hit", n, keys[i])
			}
			r.want = append(r.want, row...)
		}
		readers[n] = r
		runBatch(t, e, int64(n+1), keys, grads)
		verify(fmt.Sprintf("after republish %d", n+1))
	}
	if recycled, cloned := snapCounts(reg); recycled != 0 || cloned != rounds {
		t.Fatalf("recycled %d, cloned %d republishes under pins; want 0 and %d", recycled, cloned, rounds)
	}
	if got := e.SnapshotPins(); got != 1 {
		t.Fatalf("%d pins on the published and spare snapshots, want the last reader's on the spare", got)
	}

	// All but the first reader let go. Its snapshot is long out of the
	// rotation: the slabs take turns, and its rows still stand.
	for _, r := range readers[1:] {
		r.pins.Unpin()
	}
	readers = readers[:1]
	for n := rounds; n < rounds+3; n++ {
		runBatch(t, e, int64(n+1), keys, grads)
	}
	verify("after the slabs took turns again")
	if recycled, cloned := snapCounts(reg); recycled != 3 || cloned != rounds {
		t.Fatalf("recycled %d, cloned %d after the readers let go; want 3 and %d", recycled, cloned, rounds)
	}
	readers[0].pins.Unpin()
	readers[0].pins.Unpin() // releasing twice releases once
	if got := e.SnapshotPins(); got != 0 {
		t.Fatalf("%d pins left after every reader released", got)
	}
}

// TestRepublishPinnedSpareAllocatesNothing: a reader that holds a snapshot
// across two republishes finds it in the spare slot at the second, and that
// round copies the published slab whole into the parked snapshot's slab
// instead of cloning it. Each cycle pins what is published, runs the round
// that retires it and the round that finds it pinned, and lets go; after
// the cycle whose clone parks the first pinned spare, a cycle clones
// nothing and allocates nothing, every key the snapshot serves is the
// engine's row bit for bit throughout, and SnapshotPins sees the pin on the
// parked snapshot until it is released.
func TestRepublishPinnedSpareAllocatesNothing(t *testing.T) {
	const (
		dim    = 8
		cycles = 20
	)
	e, keys, reg := newServeTestEngine(t, dim, 64)
	dst, grads := make([]float32, len(keys)*dim), constGrads(len(keys), dim, 1)
	got, want := make([]float32, dim), make([]float32, dim)
	batch := int64(0)
	round := func() {
		batch++
		if err := e.Pull(batch, keys, dst); err != nil {
			t.Fatal(err)
		}
		e.EndPullPhase(batch)
		e.WaitMaintenance()
		if err := e.Push(batch, keys, grads); err != nil {
			t.Fatal(err)
		}
		if err := e.EndBatch(batch); err != nil {
			t.Fatal(err)
		}
		for _, k := range keys {
			src, err := e.ServeRead(k, got)
			if err != nil || src != ServeSnap {
				t.Fatalf("batch %d: key %d served from source %d (%v), want a clean snapshot hit", batch, k, src, err)
			}
			if _, err := e.ServeReadLocked(k, want); err != nil {
				t.Fatal(err)
			}
			for i := range want {
				if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
					t.Fatalf("batch %d: snapshot row of key %d = %v, the engine holds %v", batch, k, got, want)
				}
			}
		}
	}
	var pins SnapPins
	cycle := func() {
		e.PinSnapshots(&pins)
		round() // retires the pinned snapshot into the spare slot
		round() // finds it pinned there, and parks it
		if n := e.SnapshotPins(); n != 1 {
			t.Fatalf("%d pins counted with the parked snapshot pinned, want 1", n)
		}
		pins.Unpin()
	}

	round() // the epoch's first round has no retired slab: a clone
	cycle() // the first pinned spare, with nothing parked: a clone that parks it
	if recycled, cloned := snapCounts(reg); recycled != 1 || cloned != 2 {
		t.Fatalf("recycled %d, cloned %d republishes before the steady state; want 1 and 2", recycled, cloned)
	}
	var allocs float64
	if raceEnabled || lockRankDebug {
		for i := 0; i < cycles; i++ {
			cycle()
		}
	} else {
		allocs = testing.AllocsPerRun(cycles-1, cycle)
	}
	if recycled, cloned := snapCounts(reg); recycled != 1+2*cycles || cloned != 2 {
		t.Fatalf("recycled %d, cloned %d republishes after %d more cycles; want %d and 2: a pinned spare still costs a clone",
			recycled, cloned, cycles, 1+2*cycles)
	}
	if allocs != 0 {
		t.Fatalf("a cycle of two republishes, the second over a pinned spare, allocates %v objects, want 0", allocs)
	}
	if n := e.SnapshotPins(); n != 0 {
		t.Fatalf("%d pins left after Unpin", n)
	}
}
