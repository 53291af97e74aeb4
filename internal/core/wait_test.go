package core

import (
	"errors"
	"math/rand"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"openembedding/internal/psengine"
)

// TestWaitCheckpointsFinishesLargeDirtySet: a checkpoint whose dirty set
// is more than two finalizer budgets, requested with no batch to follow,
// is finished by one WaitCheckpoints, and a crash after the next batch
// recovers to it.
func TestWaitCheckpointsFinishesLargeDirtySet(t *testing.T) {
	const n = 2*finalizerBudget + 1000
	cfg := testConfig(4, 2*n, n) // every key stays cached and dirty
	e := newTestEngine(t, cfg)
	keys := seedKeys(n)
	runBatch(t, e, 0, keys, constGrads(n, 4, 0.5))
	if err := e.RequestCheckpoint(0); err != nil {
		t.Fatal(err)
	}
	if got := e.CompletedCheckpoint(); got != -1 {
		t.Fatalf("checkpoint done at request time (%d): nothing left to wait for", got)
	}
	writes := e.Stats().PMemWrites
	if err := e.WaitCheckpoints(); err != nil {
		t.Fatal(err)
	}
	if got := e.CompletedCheckpoint(); got != 0 {
		t.Fatalf("completed checkpoint = %d after the wait, want 0", got)
	}
	if w := e.Stats().PMemWrites - writes; w < n {
		t.Fatalf("the wait flushed %d entries, want the %d dirty ones", w, n)
	}

	// Batch 1 trains past the checkpoint; its pull reads batch 0's state.
	want := runBatch(t, e, 1, keys, constGrads(n, 4, 1))
	dev := e.Arena().Device()
	e.Close()
	dev.Crash()
	rec, ckpt, err := Recover(cfg, dev)
	if err != nil {
		t.Fatal(err)
	}
	defer rec.Close()
	if ckpt != 0 {
		t.Fatalf("recovered checkpoint = %d, want 0", ckpt)
	}
	got := make([]float32, len(want))
	if err := rec.Pull(1, keys, got); err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("key %d weight %d: recovered %v, checkpoint state %v", keys[i/4], i%4, got[i], want[i])
		}
	}
}

// TestWaitCheckpointsReportsBrokenInvariant: when the active checkpoint
// counts one flush more than its memoized list can supply, WaitCheckpoints
// drains the list and then returns an error naming the checkpoint instead
// of spinning; a closed engine answers ErrClosed.
func TestWaitCheckpointsReportsBrokenInvariant(t *testing.T) {
	e := newTestEngine(t, testConfig(4, 64, 32))
	keys := seedKeys(8)
	runBatch(t, e, 0, keys, constGrads(len(keys), 4, 1))
	if err := e.RequestCheckpoint(0); err != nil {
		t.Fatal(err)
	}
	if cp := e.activateHead(); cp != 0 {
		t.Fatalf("active checkpoint = %d, want 0", cp)
	}
	e.ckptRemaining.Add(1)

	done := make(chan error, 1)
	go func() { done <- e.WaitCheckpoints() }()
	select {
	case err := <-done:
		if err == nil || !strings.Contains(err.Error(), "checkpoint 0 ") {
			t.Fatalf("wait on a checkpoint nothing can finish returned %v, want an error naming checkpoint 0", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("WaitCheckpoints still spinning on a checkpoint nothing can finish")
	}
	if got := e.CompletedCheckpoint(); got != -1 {
		t.Fatalf("completed checkpoint = %d, want -1", got)
	}

	e.Close()
	if err := e.WaitCheckpoints(); !errors.Is(err, psengine.ErrClosed) {
		t.Fatalf("wait on a closed engine returned %v, want ErrClosed", err)
	}
}

// TestWaitCheckpointsConcurrent: waiters on several goroutines race the
// batch protocol's own finalizer, and each other, on a sharded engine under
// eviction pressure. No wait may call a checkpoint stuck, and each returns
// with every checkpoint queued before it durable.
func TestWaitCheckpointsConcurrent(t *testing.T) {
	cfg := testConfig(4, 4096, 256)
	cfg.Shards = 4
	e := newTestEngine(t, cfg)
	var (
		stop atomic.Bool
		wg   sync.WaitGroup
	)
	for w := 0; w < 3; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !stop.Load() {
				target := e.newestCheckpoint()
				if err := e.WaitCheckpoints(); err != nil {
					t.Errorf("wait: %v", err)
					return
				}
				if got := e.CompletedCheckpoint(); got < target {
					t.Errorf("wait returned at %d with %d queued before it", got, target)
					return
				}
				runtime.Gosched()
			}
		}()
	}
	rng := rand.New(rand.NewSource(1))
	last := int64(-1)
	for b := int64(0); b < 60; b++ {
		var keys []uint64
		for _, k := range rng.Perm(2000)[:300] {
			keys = append(keys, uint64(k))
		}
		runBatch(t, e, b, keys, constGrads(len(keys), 4, float32(b%7)-3))
		if b%3 == 0 {
			if err := e.RequestCheckpoint(b); err != nil {
				t.Fatal(err)
			}
			last = b
		}
	}
	stop.Store(true)
	wg.Wait()
	if err := e.WaitCheckpoints(); err != nil {
		t.Fatal(err)
	}
	if got := e.CompletedCheckpoint(); got != last {
		t.Fatalf("completed checkpoint = %d, want %d", got, last)
	}
}
