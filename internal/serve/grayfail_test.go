package serve

import (
	"sync"
	"sync/atomic"
	"testing"

	"openembedding/internal/obs"
)

// Graceful-degradation tests (DESIGN.md §16): admission control sheds
// load past the inflight watermark with a busy-flavored error.

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
