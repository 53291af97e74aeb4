package pmem

import (
	"errors"
	"math"
	"math/rand"
	"sync"
	"testing"
	"testing/quick"
)

func newTestArena(t *testing.T, payloadFloats, slots int) *Arena {
	t.Helper()
	payload := FloatBytes(payloadFloats)
	d, _ := newTestDevice(t, ArenaLayout(payload, slots))
	a, err := NewArena(d, payload, slots)
	if err != nil {
		t.Fatal(err)
	}
	return a
}

func encPayload(a *Arena, vals ...float32) []byte {
	buf := make([]byte, a.PayloadBytes())
	EncodeFloats(buf, vals)
	return buf
}

func TestArenaWriteReadRecord(t *testing.T) {
	a := newTestArena(t, 4, 8)
	slot, err := a.Alloc()
	if err != nil {
		t.Fatal(err)
	}
	if err := a.WriteRecord(slot, 42, 7, encPayload(a, 1, 2, 3, 4)); err != nil {
		t.Fatal(err)
	}
	rec, err := a.ReadRecord(slot)
	if err != nil {
		t.Fatal(err)
	}
	if rec.Key != 42 || rec.Version != 7 {
		t.Fatalf("rec = %+v", rec)
	}
	got := make([]float32, 4)
	DecodeFloats(got, rec.Payload)
	for i, want := range []float32{1, 2, 3, 4} {
		if got[i] != want {
			t.Fatalf("payload[%d] = %v want %v", i, got[i], want)
		}
	}
	v, err := a.Version(slot)
	if err != nil || v != 7 {
		t.Fatalf("Version = %d, %v", v, err)
	}
}

func TestArenaUnwrittenSlotIsCorrupt(t *testing.T) {
	a := newTestArena(t, 4, 8)
	slot, _ := a.Alloc()
	if _, err := a.ReadRecord(slot); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("unwritten slot decoded: %v", err)
	}
}

func TestArenaTornWriteDiscardedOnCrash(t *testing.T) {
	a := newTestArena(t, 4, 8)
	slot, _ := a.Alloc()
	// Simulate a torn write: store the record bytes but crash before flush.
	buf := make([]byte, slotHeaderLen+a.PayloadBytes())
	copy(buf[slotHeaderLen:], encPayload(a, 9, 9, 9, 9))
	if err := a.Device().Write(a.slotOffset(slot), buf); err != nil {
		t.Fatal(err)
	}
	a.Device().Crash()
	if _, err := a.ReadRecord(slot); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("torn record accepted: %v", err)
	}
}

func TestArenaRecordSurvivesCrash(t *testing.T) {
	a := newTestArena(t, 2, 4)
	slot, _ := a.Alloc()
	if err := a.WriteRecord(slot, 5, 3, encPayload(a, 1.5, -2.5)); err != nil {
		t.Fatal(err)
	}
	a.Device().Crash()
	rec, err := a.ReadRecord(slot)
	if err != nil {
		t.Fatal(err)
	}
	if rec.Key != 5 || rec.Version != 3 {
		t.Fatalf("rec = %+v", rec)
	}
}

func TestArenaAllocExhaustionAndFree(t *testing.T) {
	a := newTestArena(t, 1, 3)
	var slots []uint32
	for i := 0; i < 3; i++ {
		s, err := a.Alloc()
		if err != nil {
			t.Fatal(err)
		}
		slots = append(slots, s)
	}
	if _, err := a.Alloc(); !errors.Is(err, ErrFull) {
		t.Fatalf("want ErrFull, got %v", err)
	}
	a.Free(slots[1])
	s, err := a.Alloc()
	if err != nil {
		t.Fatal(err)
	}
	if s != slots[1] {
		t.Fatalf("freed slot not reused: got %d want %d", s, slots[1])
	}
}

func TestArenaRetireBlocksReuseUntilCheckpoint(t *testing.T) {
	a := newTestArena(t, 1, 2)
	s0, _ := a.Alloc()
	s1, _ := a.Alloc()
	_ = s1
	a.Retire(s0, 3, 10) // superseded by version 10
	if _, err := a.Alloc(); !errors.Is(err, ErrFull) {
		t.Fatalf("retired slot reused before checkpoint")
	}
	if n := a.ReclaimUpTo(9); n != 0 {
		t.Fatalf("reclaimed %d slots with ckpt 9", n)
	}
	if n := a.ReclaimUpTo(10); n != 1 {
		t.Fatalf("reclaimed %d slots with ckpt 10, want 1", n)
	}
	if _, err := a.Alloc(); err != nil {
		t.Fatalf("reclaimed slot not allocatable: %v", err)
	}
}

func TestArenaDoubleFreePanics(t *testing.T) {
	a := newTestArena(t, 1, 2)
	s, _ := a.Alloc()
	a.Free(s)
	defer func() {
		if recover() == nil {
			t.Fatal("double free did not panic")
		}
	}()
	a.Free(s)
}

func TestArenaScanSkipsInvalidAndFindsValid(t *testing.T) {
	a := newTestArena(t, 2, 10)
	want := map[uint64]int64{}
	for i := 0; i < 5; i++ {
		s, _ := a.Alloc()
		key := uint64(100 + i)
		ver := int64(i)
		if err := a.WriteRecord(s, key, ver, encPayload(a, float32(i), 0)); err != nil {
			t.Fatal(err)
		}
		want[key] = ver
	}
	got := map[uint64]int64{}
	if err := a.Scan(func(r Record) error {
		got[r.Key] = r.Version
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("scan found %d records, want %d", len(got), len(want))
	}
	for k, v := range want {
		if got[k] != v {
			t.Fatalf("scan[%d] = %d want %d", k, got[k], v)
		}
	}
}

func TestArenaCheckpointedBatchPersistence(t *testing.T) {
	a := newTestArena(t, 1, 2)
	if id, err := a.CheckpointedBatch(); err != nil || id != -1 {
		t.Fatalf("initial ckpt id = %d, %v; want -1", id, err)
	}
	if err := a.SetCheckpointedBatch(37); err != nil {
		t.Fatal(err)
	}
	a.Device().Crash()
	reopened, err := OpenArena(a.Device())
	if err != nil {
		t.Fatal(err)
	}
	if id, err := reopened.CheckpointedBatch(); err != nil || id != 37 {
		t.Fatalf("ckpt id after crash = %d, %v; want 37", id, err)
	}
}

func TestArenaOpenRejectsUnformattedDevice(t *testing.T) {
	d, _ := newTestDevice(t, 4096)
	if _, err := OpenArena(d); !errors.Is(err, ErrBadImage) {
		t.Fatalf("want ErrBadImage, got %v", err)
	}
}

func TestArenaRecoveryRebuildsFreeList(t *testing.T) {
	a := newTestArena(t, 1, 4)
	for i := 0; i < 4; i++ {
		s, _ := a.Alloc()
		if err := a.WriteRecord(s, uint64(i), 0, encPayload(a, 0)); err != nil {
			t.Fatal(err)
		}
	}
	a.Device().Crash()
	re, err := OpenArena(a.Device())
	if err != nil {
		t.Fatal(err)
	}
	// Recovery keeps slots 0 and 2 only.
	re.MarkOccupied(0)
	re.MarkOccupied(2)
	re.FinishRecovery()
	seen := map[uint32]bool{}
	for i := 0; i < 2; i++ {
		s, err := re.Alloc()
		if err != nil {
			t.Fatal(err)
		}
		if s == 0 || s == 2 {
			t.Fatalf("recovered-live slot %d handed out", s)
		}
		seen[s] = true
	}
	if !seen[1] || !seen[3] {
		t.Fatalf("free slots not 1 and 3: %v", seen)
	}
}

func TestFloatsRoundTripProperty(t *testing.T) {
	f := func(vals []float32) bool {
		buf := make([]byte, FloatBytes(len(vals)))
		EncodeFloats(buf, vals)
		got := make([]float32, len(vals))
		DecodeFloats(got, buf)
		for i := range vals {
			// NaN compares unequal to itself; compare bit patterns.
			if math.Float32bits(got[i]) != math.Float32bits(vals[i]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestArenaRecordRoundTripProperty(t *testing.T) {
	a := newTestArena(t, 8, 16)
	rng := rand.New(rand.NewSource(1))
	f := func(key uint64, version int64, seed int64) bool {
		slot, err := a.Alloc()
		if err != nil {
			return true // arena full: skip, not a property failure
		}
		defer a.Free(slot)
		vals := make([]float32, 8)
		r := rand.New(rand.NewSource(seed ^ rng.Int63()))
		for i := range vals {
			vals[i] = float32(r.NormFloat64())
		}
		buf := make([]byte, a.PayloadBytes())
		EncodeFloats(buf, vals)
		if err := a.WriteRecord(slot, key, version, buf); err != nil {
			return false
		}
		rec, err := a.ReadRecord(slot)
		if err != nil {
			return false
		}
		if rec.Key != key || rec.Version != version {
			return false
		}
		got := make([]float32, 8)
		DecodeFloats(got, rec.Payload)
		for i := range vals {
			if got[i] != vals[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestArenaConcurrentSlots exercises concurrent record writes/reads on
// distinct slots plus allocator churn — run under -race in CI.
func TestArenaConcurrentSlots(t *testing.T) {
	a := newTestArena(t, 4, 128)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				slot, err := a.Alloc()
				if err != nil {
					continue // transient exhaustion under churn is fine
				}
				key := uint64(w*1000 + i)
				if err := a.WriteRecord(slot, key, int64(i), encPayload(a, float32(w), float32(i), 0, 0)); err != nil {
					t.Error(err)
					return
				}
				rec, err := a.ReadRecord(slot)
				if err != nil || rec.Key != key {
					t.Errorf("slot %d: rec=%+v err=%v", slot, rec, err)
					return
				}
				a.Free(slot)
			}
		}(w)
	}
	wg.Wait()
}

// TestReclaimPredicate verifies the generalized retention rule directly.
func TestReclaimPredicate(t *testing.T) {
	a := newTestArena(t, 1, 8)
	s0, _ := a.Alloc()
	s1, _ := a.Alloc()
	a.Retire(s0, 3, 7)  // record v3 superseded by v7
	a.Retire(s1, 8, 12) // record v8 superseded by v12

	// Nothing is freed while the superseding versions are not sealed: a
	// checkpoint request for batch 6 could still land in [3, 7).
	if freed := a.Reclaim(6, nil); freed != 0 {
		t.Fatalf("freed %d records superseded by unsealed batches", freed)
	}
	// Keep records whose [old, new) range contains checkpoint 5.
	if freed := a.Reclaim(12, []int64{5}); freed != 1 {
		t.Fatalf("freed %d, want 1 (only the v8->v12 record)", freed)
	}
	if a.RetiredCount() != 1 {
		t.Fatalf("retired = %d", a.RetiredCount())
	}
	// The same pins again look at nothing and free nothing; once checkpoint
	// 5 is superseded the held record goes too.
	if freed := a.Reclaim(12, []int64{5}); freed != 0 {
		t.Fatalf("freed %d on a repeated call", freed)
	}
	if freed := a.Reclaim(12, []int64{9}); freed != 1 || a.RetiredCount() != 0 {
		t.Fatalf("freed %d with the pin moved past the record, %d still retired", freed, a.RetiredCount())
	}
}

func TestScanRangeBounds(t *testing.T) {
	a := newTestArena(t, 1, 8)
	if err := a.ScanRange(4, 2, func(Record) error { return nil }); !errors.Is(err, ErrOutOfRange) {
		t.Fatalf("inverted range: %v", err)
	}
	if err := a.ScanRange(0, 9, func(Record) error { return nil }); !errors.Is(err, ErrOutOfRange) {
		t.Fatalf("overlong range: %v", err)
	}
	s, _ := a.Alloc()
	if err := a.WriteRecord(s, 1, 1, encPayload(a, 1)); err != nil {
		t.Fatal(err)
	}
	found := 0
	if err := a.ScanRange(0, 4, func(Record) error { found++; return nil }); err != nil {
		t.Fatal(err)
	}
	if found != 1 {
		t.Fatalf("found %d records", found)
	}
}
