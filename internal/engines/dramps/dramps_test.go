package dramps

import (
	"errors"
	"sync"
	"testing"

	"openembedding/internal/checkpoint"
	"openembedding/internal/optim"
	"openembedding/internal/psengine"
)

func testEngine(t *testing.T, dir string) *Engine {
	t.Helper()
	e, err := New(psengine.Config{
		Dim: 4, Optimizer: optim.NewSGD(0.1), Capacity: 64,
	}, Options{CheckpointDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { e.Close() })
	return e
}

func drive(t *testing.T, e *Engine, batch int64, keys []uint64, push bool) {
	t.Helper()
	dst := make([]float32, len(keys)*4)
	if err := e.Pull(batch, keys, dst); err != nil {
		t.Fatal(err)
	}
	if push {
		grads := make([]float32, len(keys)*4)
		for i := range grads {
			grads[i] = 1
		}
		if err := e.Push(batch, keys, grads); err != nil {
			t.Fatal(err)
		}
	}
	if err := e.EndBatch(batch); err != nil {
		t.Fatal(err)
	}
}

// TestIncrementalCheckpointIsDelta: the second checkpoint must contain only
// the entries dirtied since the first — the defining property of the
// CheckFreq-style baseline.
func TestIncrementalCheckpointIsDelta(t *testing.T) {
	dir := t.TempDir()
	e := testEngine(t, dir)

	drive(t, e, 0, []uint64{1, 2, 3}, true)
	if err := e.RequestCheckpoint(0); err != nil {
		t.Fatal(err)
	}
	// Touch only key 2 afterwards.
	drive(t, e, 1, []uint64{2}, true)
	if err := e.RequestCheckpoint(1); err != nil {
		t.Fatal(err)
	}

	first, err := checkpoint.ReadDelta(dir, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	second, err := checkpoint.ReadDelta(dir, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(first) != 3 {
		t.Fatalf("first delta has %d entries, want 3", len(first))
	}
	if len(second) != 1 || second[0].Key != 2 {
		t.Fatalf("second delta = %+v, want only key 2", second)
	}
}

func TestPullOnlyEntriesStillCheckpointed(t *testing.T) {
	// A freshly created (never pushed) entry is dirty: its init state must
	// reach the first checkpoint or recovery would lose it.
	dir := t.TempDir()
	e := testEngine(t, dir)
	drive(t, e, 0, []uint64{9}, false)
	if err := e.RequestCheckpoint(0); err != nil {
		t.Fatal(err)
	}
	delta, err := checkpoint.ReadDelta(dir, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(delta) != 1 || delta[0].Key != 9 {
		t.Fatalf("delta = %+v", delta)
	}
}

func TestCheckpointValidation(t *testing.T) {
	e := testEngine(t, t.TempDir())
	drive(t, e, 0, []uint64{1}, true)
	if err := e.RequestCheckpoint(5); err == nil {
		t.Fatal("checkpoint of unsealed batch accepted")
	}
	noCkpt, err := New(psengine.Config{Dim: 4, Optimizer: optim.NewSGD(0.1), Capacity: 8}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer noCkpt.Close()
	if err := noCkpt.RequestCheckpoint(0); err == nil {
		t.Fatal("unconfigured checkpoint accepted")
	}
}

func TestCapacityLimit(t *testing.T) {
	e := testEngine(t, t.TempDir())
	keys := make([]uint64, 65)
	for i := range keys {
		keys[i] = uint64(i)
	}
	err := e.Pull(0, keys, make([]float32, 65*4))
	if !errors.Is(err, psengine.ErrCapacity) {
		t.Fatalf("want ErrCapacity, got %v", err)
	}
}

func TestClosedEngine(t *testing.T) {
	e := testEngine(t, t.TempDir())
	e.Close()
	if err := e.Pull(0, []uint64{1}, make([]float32, 4)); !errors.Is(err, psengine.ErrClosed) {
		t.Fatalf("want ErrClosed, got %v", err)
	}
	if err := e.Push(0, []uint64{1}, make([]float32, 4)); !errors.Is(err, psengine.ErrClosed) {
		t.Fatalf("want ErrClosed, got %v", err)
	}
	if err := e.EndBatch(0); !errors.Is(err, psengine.ErrClosed) {
		t.Fatalf("want ErrClosed, got %v", err)
	}
}

func TestRestoreMissingDir(t *testing.T) {
	_, _, err := Restore(psengine.Config{Dim: 4, Optimizer: optim.NewSGD(0.1), Capacity: 8},
		Options{CheckpointDir: t.TempDir()})
	if !errors.Is(err, checkpoint.ErrNoCheckpoint) {
		t.Fatalf("want ErrNoCheckpoint, got %v", err)
	}
}

// TestAsyncCheckpointTearsBatches demonstrates the hazard the paper cites
// for asynchronous checkpointing (Sec. II-A): a concurrent update lands
// mid-dump, and the checkpoint captures a mixture of batch states — one
// key from before the update, one from after — a state no synchronous
// batch boundary ever had.
func TestAsyncCheckpointTearsBatches(t *testing.T) {
	dir := t.TempDir()
	e, err := New(psengine.Config{
		Dim: 1, Optimizer: optim.NewSGD(1), Capacity: 64,
	}, Options{CheckpointDir: dir, AsyncCheckpoint: true})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()

	// Two keys in different shards (found by probing), both at batch-0 state.
	keyA, keyB := uint64(0), uint64(0)
	for k := uint64(1); k < 1000 && keyB == 0; k++ {
		if e.shardFor(k) != e.shardFor(1) {
			keyB = k
		}
	}
	keyA = 1
	// Order the two keys by shard index so the hook can update the
	// later-visited one after the earlier was snapshotted.
	shardIdx := func(k uint64) int {
		for i := range e.shards {
			if &e.shards[i] == e.shardFor(k) {
				return i
			}
		}
		return -1
	}
	if shardIdx(keyA) > shardIdx(keyB) {
		keyA, keyB = keyB, keyA
	}

	keys := []uint64{keyA, keyB}
	dst := make([]float32, 2)
	if err := e.Pull(0, keys, dst); err != nil {
		t.Fatal(err)
	}
	if err := e.Push(0, keys, []float32{1, 1}); err != nil {
		t.Fatal(err)
	}
	if err := e.EndBatch(0); err != nil {
		t.Fatal(err)
	}

	// The hook fires after each shard snapshot; once keyA's shard is done,
	// batch 1 updates BOTH keys while the dump is still in flight.
	var once sync.Once
	e.asyncShardHook = func(shard int) {
		if shard < shardIdx(keyA) {
			return
		}
		once.Do(func() {
			if err := e.Pull(1, keys, dst); err != nil {
				t.Error(err)
			}
			if err := e.Push(1, keys, []float32{1, 1}); err != nil {
				t.Error(err)
			}
			if err := e.EndBatch(1); err != nil {
				t.Error(err)
			}
		})
	}
	if err := e.RequestCheckpoint(0); err != nil {
		t.Fatal(err)
	}
	if err := e.WaitCheckpoints(); err != nil {
		t.Fatal(err)
	}

	delta, err := checkpoint.ReadDelta(dir, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	vals := map[uint64]float32{}
	for _, ent := range delta {
		vals[ent.Key] = ent.Payload[0]
	}
	// keyA was snapshotted at its batch-0 value; keyB picked up batch 1's
	// update before its shard was visited: a torn, never-existed state.
	diff := vals[keyA] - vals[keyB]
	init := func(k uint64) float32 {
		w := make([]float32, 1)
		psengine.Config{Dim: 1, Optimizer: optim.NewSGD(1)}.WithDefaults().Initializer(k, w)
		return w[0]
	}
	wantTear := (init(keyA) - 1) - (init(keyB) - 2)
	if d := diff - wantTear; d > 1e-6 || d < -1e-6 {
		t.Fatalf("expected torn checkpoint (keyA at batch 0, keyB at batch 1): diff=%v want=%v", diff, wantTear)
	}
}
