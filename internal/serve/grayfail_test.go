package serve

import (
	"sync"
	"sync/atomic"
	"testing"

	"openembedding/internal/obs"
)

// Graceful-degradation tests (DESIGN.md §16): admission control sheds
// load past the inflight watermark with a busy-flavored error, and the
// stale fallback tier tracks, refreshes and serves bounded row snapshots.

func TestAdmissionControlSheds(t *testing.T) {
	const dim = 4
	e := newTestEngine(t, dim, 256, 128, 1)
	keys := []uint64{1, 2, 3, 4}
	train(t, e, 0, keys, 1)
	reg := obs.NewRegistry()
	h := New(e, reg)
	h.SetMaxInflight(1)

	offsets := []uint32{0, uint32(len(keys))}
	out := make([]float32, dim)

	// A single caller is always admitted.
	if err := h.PullBags(false, offsets, keys, out); err != nil {
		t.Fatalf("request under the watermark shed: %v", err)
	}

	// Saturate: many concurrent callers against watermark 1 must shed
	// some, and every shed is the typed busy error — never a wrong answer.
	var wg sync.WaitGroup
	var ok, shed atomic.Int64
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			buf := make([]float32, dim)
			err := h.PullBags(false, offsets, keys, buf)
			switch {
			case err == nil:
				ok.Add(1)
			case IsShed(err):
				shed.Add(1)
			default:
				t.Errorf("unexpected error under load: %v", err)
			}
		}()
	}
	wg.Wait()
	if ok.Load() == 0 {
		t.Fatal("no request admitted at watermark 1")
	}
	if got := reg.Snapshot().Counters["serve_shed"]; got != shed.Load() {
		t.Fatalf("serve_shed = %d, want %d (one per shed request)", got, shed.Load())
	}
	if h.Inflight() != 0 {
		t.Fatalf("inflight = %d after quiesce, want 0", h.Inflight())
	}

	// The shed error maps to the rpc busy response via its Busy() method.
	if _, ok := errShed.(interface{ Busy() bool }); !ok {
		t.Fatal("errShed does not implement Busy(); servers would return a generic error")
	}

	// Raising the watermark (or disabling with 0) re-admits everything.
	h.SetMaxInflight(0)
	if err := h.PullBags(false, offsets, keys, out); err != nil {
		t.Fatalf("request with admission disabled: %v", err)
	}
}

// TestAdmissionDisabledZeroAllocs: with no watermark the admission check
// is one atomic load — the 0-alloc serving hot path is untouched.
func TestAdmissionDisabledZeroAllocs(t *testing.T) {
	const dim = 8
	e := newTestEngine(t, dim, 256, 128, 1)
	keys := []uint64{1, 2, 3, 4, 5, 6, 7, 8}
	train(t, e, 0, keys, 1)
	h := New(e, obs.NewRegistry())

	offsets := []uint32{0, 4, 8}
	out := make([]float32, 2*dim)
	if err := h.PullBags(false, offsets, keys, out); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(200, func() {
		if err := h.PullBags(false, offsets, keys, out); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("PullBags with admission disabled allocates %.1f/op, want 0", allocs)
	}

	// And with a generous watermark the two atomic adds stay alloc-free.
	h.SetMaxInflight(64)
	allocs = testing.AllocsPerRun(200, func() {
		if err := h.PullBags(false, offsets, keys, out); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("PullBags with admission armed allocates %.1f/op, want 0", allocs)
	}
}

func TestStaleTier(t *testing.T) {
	reg := obs.NewRegistry()
	st := NewStaleTier(3)
	st.SetObs(reg)

	// Track is bounded and deduplicated; TrackedKeys is sorted.
	st.Track([]uint64{9, 2, 9, 5})
	st.Track([]uint64{7, 8}) // beyond capacity 3: dropped
	got := st.TrackedKeys()
	want := []uint64{2, 5, 9}
	if len(got) != len(want) {
		t.Fatalf("tracked = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("tracked = %v, want %v (ascending)", got, want)
		}
	}

	// Publish copies the rows: mutating the source must not reach the tier.
	src := []float32{1, 2}
	if err := st.Publish(2, []uint64{2}, src); err != nil {
		t.Fatal(err)
	}
	src[0] = 99
	if row := st.Lookup(2); row[0] != 1 || row[1] != 2 {
		t.Fatalf("published row = %v, want a copy of [1 2]", row)
	}
	// Lookup of a never-refreshed key misses (the caller substitutes the
	// zero vector — the documented staleness doctrine).
	if row := st.Lookup(5); row != nil {
		t.Fatalf("unrefreshed key returned %v, want nil", row)
	}
	// A pass whose rows do not match its keys is refused and changes nothing.
	if err := st.Publish(2, []uint64{2, 5}, []float32{1, 2, 3}); err == nil {
		t.Fatal("3 floats for 2 keys of dim 2 accepted")
	}
	if st.Len() != 1 {
		t.Fatalf("rows = %d after a refused pass, want 1", st.Len())
	}

	// The tier, not its caller, enforces the row capacity: a pass of four
	// keys into a tier of three keeps the first three.
	pass := []float32{10, 20, 3, 4, 5, 6, 7, 8}
	if err := st.Publish(2, []uint64{2, 5, 9, 7}, pass); err != nil {
		t.Fatal(err)
	}
	if st.Len() != 3 {
		t.Fatalf("rows = %d, want 3 (capacity)", st.Len())
	}
	if row := st.Lookup(7); row != nil {
		t.Fatalf("over-capacity key stored: %v", row)
	}
	// A publish replaces: the resident key reads the new pass's row.
	if row := st.Lookup(2); row[0] != 10 || row[1] != 20 {
		t.Fatalf("refresh of resident key lost: %v", row)
	}

	st.Fallback()
	s := reg.Snapshot()
	if s.Counters["serve_stale_fallbacks"] != 1 {
		t.Fatalf("serve_stale_fallbacks = %d, want 1", s.Counters["serve_stale_fallbacks"])
	}
	if s.Counters["serve_stale_hits"] != 2 || s.Counters["serve_stale_miss"] != 2 {
		t.Fatalf("hits/miss = %d/%d, want 2/2",
			s.Counters["serve_stale_hits"], s.Counters["serve_stale_miss"])
	}

	// A nil tier disables every method.
	var nilT *StaleTier
	nilT.Track([]uint64{1})
	if err := nilT.Publish(2, []uint64{1}, src); err != nil {
		t.Fatal(err)
	}
	nilT.Fallback()
	if nilT.Lookup(1) != nil || nilT.TrackedKeys() != nil || nilT.Len() != 0 {
		t.Fatal("nil StaleTier misbehaved")
	}
}

// TestStaleTierPublishLookupRace: a refresh pass republishing a key's row
// beside a degraded gather reading it. Every published row has all-equal
// components, so a read that mixes two passes — the torn row the
// Store-in-place tier produced — shows as unequal components, and -race
// reports the unsynchronized write itself.
func TestStaleTierPublishLookupRace(t *testing.T) {
	const dim, rounds = 64, 2000
	st := NewStaleTier(4)
	keys := []uint64{7}
	row := make([]float32, dim)
	if err := st.Publish(dim, keys, row); err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 1; i <= rounds; i++ {
			for j := range row {
				row[j] = float32(i)
			}
			if err := st.Publish(dim, keys, row); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	// Read the way cluster.bagStale does: look the row up, then sum it
	// component by component with no lock held.
	acc := make([]float32, dim)
	for running := true; running; {
		select {
		case <-done:
			running = false
		default:
		}
		clear(acc)
		for i, v := range st.Lookup(7) {
			acc[i] += v
		}
		for _, v := range acc {
			if v != acc[0] {
				t.Fatalf("torn stale row: %v", acc)
			}
		}
	}
}
