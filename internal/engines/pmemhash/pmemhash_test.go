package pmemhash

import (
	"errors"
	"testing"

	"openembedding/internal/device"
	"openembedding/internal/optim"
	"openembedding/internal/pmem"
	"openembedding/internal/psengine"
	"openembedding/internal/simclock"
)

func testEngine(t *testing.T, capacity int) (*Engine, *simclock.Meter) {
	t.Helper()
	cfg := psengine.Config{
		Dim: 4, Optimizer: optim.NewSGD(0.1), Capacity: capacity,
		Meter: simclock.NewMeter(),
	}.WithDefaults()
	payload := pmem.FloatBytes(cfg.EntryFloats())
	dev := pmem.NewDevice(pmem.ArenaLayout(payload, capacity), device.NewTimedPMem(cfg.Meter))
	t.Cleanup(func() { dev.Close() })
	arena, err := pmem.NewArena(dev, payload, capacity)
	if err != nil {
		t.Fatal(err)
	}
	e, err := New(cfg, arena)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { e.Close() })
	return e, cfg.Meter
}

// TestEveryReadHitsPMem: PMem-Hash has no DRAM tier — every pull charges
// PMem read time, even for the hottest key.
func TestEveryReadHitsPMem(t *testing.T) {
	e, m := testEngine(t, 16)
	dst := make([]float32, 4)
	for i := 0; i < 10; i++ {
		if err := e.Pull(int64(i), []uint64{1}, dst); err != nil {
			t.Fatal(err)
		}
		if err := e.EndBatch(int64(i)); err != nil {
			t.Fatal(err)
		}
	}
	st := e.Stats()
	if st.PMemReads < 10 {
		t.Fatalf("pmem reads = %d, want one per pull", st.PMemReads)
	}
	if m.Total(simclock.PMemRead) <= 0 {
		t.Fatal("no PMem read time charged")
	}
}

// TestUpdateIsTransactionalRMW: each push pays a read plus two writes
// (undo log + data) — the write amplification of Observation 1.
func TestUpdateIsTransactionalRMW(t *testing.T) {
	e, m := testEngine(t, 16)
	dst := make([]float32, 4)
	if err := e.Pull(0, []uint64{1}, dst); err != nil {
		t.Fatal(err)
	}
	before := e.Stats()
	wBefore := m.Total(simclock.PMemWrite)
	if err := e.Push(0, []uint64{1}, []float32{1, 1, 1, 1}); err != nil {
		t.Fatal(err)
	}
	after := e.Stats()
	if after.PMemWrites-before.PMemWrites != 2 {
		t.Fatalf("push did %d writes, want 2 (undo + data)", after.PMemWrites-before.PMemWrites)
	}
	if after.PMemReads-before.PMemReads != 1 {
		t.Fatalf("push did %d reads, want 1", after.PMemReads-before.PMemReads)
	}
	if m.Total(simclock.PMemWrite) <= wBefore {
		t.Fatal("push charged no PMem write time")
	}
}

// TestUpdateDurableWithoutFlushCall: after Push returns, a crash loses
// nothing (in-place transactional persistence).
func TestUpdateDurableWithoutFlushCall(t *testing.T) {
	e, _ := testEngine(t, 16)
	dst := make([]float32, 4)
	if err := e.Pull(0, []uint64{5}, dst); err != nil {
		t.Fatal(err)
	}
	if err := e.Push(0, []uint64{5}, []float32{1, 1, 1, 1}); err != nil {
		t.Fatal(err)
	}
	want := make([]float32, 4)
	if err := e.Pull(1, []uint64{5}, want); err != nil {
		t.Fatal(err)
	}

	e.Arena().Device().Crash()
	got := make([]float32, 4)
	if err := e.Pull(2, []uint64{5}, got); err != nil {
		t.Fatal(err)
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("crash lost update: %v vs %v", got, want)
		}
	}
}

func TestCapacity(t *testing.T) {
	e, _ := testEngine(t, 4)
	keys := []uint64{1, 2, 3, 4, 5}
	err := e.Pull(0, keys, make([]float32, 5*4))
	if !errors.Is(err, psengine.ErrCapacity) {
		t.Fatalf("want ErrCapacity, got %v", err)
	}
}

func TestCheckpointIsMetadataOnly(t *testing.T) {
	e, _ := testEngine(t, 16)
	dst := make([]float32, 4)
	if err := e.Pull(0, []uint64{1}, dst); err != nil {
		t.Fatal(err)
	}
	if err := e.EndBatch(0); err != nil {
		t.Fatal(err)
	}
	if err := e.RequestCheckpoint(0); err != nil {
		t.Fatal(err)
	}
	if e.CompletedCheckpoint() != 0 {
		t.Fatal("checkpoint not recorded")
	}
	if id, _ := e.Arena().CheckpointedBatch(); id != 0 {
		t.Fatalf("durable ckpt id = %d", id)
	}
	if err := e.RequestCheckpoint(5); err == nil {
		t.Fatal("unsealed checkpoint accepted")
	}
}
