package pmem

import (
	"errors"
	"testing"

	"openembedding/internal/device"
	"openembedding/internal/faultinject"
	"openembedding/internal/simclock"
)

// newMediaArena builds a formatted arena and THEN arms the media-fault
// model (formatting is setup, not a fault target) — the same ordering
// ps.StartNode uses.
func newMediaArena(t *testing.T, slots int, seed uint64, rules ...faultinject.Rule) (*Arena, *Device) {
	t.Helper()
	payload := FloatBytes(4)
	m := simclock.NewMeter()
	dev := NewDevice(ArenaLayout(payload, slots), device.NewTimedPMem(m))
	t.Cleanup(func() { dev.Close() })
	a, err := NewArena(dev, payload, slots)
	if err != nil {
		t.Fatal(err)
	}
	dev.SetMediaFaults(faultinject.New(seed, rules...), "m")
	return a, dev
}

func mustAlloc(t *testing.T, a *Arena) uint32 {
	t.Helper()
	slot, err := a.Alloc()
	if err != nil {
		t.Fatal(err)
	}
	return slot
}

func TestMediaBitRotFailsVerifiedRead(t *testing.T) {
	a, _ := newMediaArena(t, 8, 42,
		faultinject.Rule{Point: faultinject.PointPMemFlush, Kind: faultinject.KindBitRot, Nth: 1})
	slot := mustAlloc(t, a)
	if err := a.WriteRecord(slot, 7, 3, encPayload(a, 1, 2, 3, 4)); err != nil {
		t.Fatal(err)
	}
	dst := make([]byte, a.PayloadBytes())
	err := a.ReadPayloadVerified(slot, 7, dst)
	if err == nil {
		t.Fatal("verified read of a rotted record succeeded")
	}
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("want ErrCorrupt, got %v", err)
	}
	if !IsIntegrity(err) {
		t.Fatalf("IsIntegrity(%v) = false", err)
	}
	var ce *CorruptError
	if !errors.As(err, &ce) {
		t.Fatalf("want *CorruptError, got %T", err)
	}
	if ce.Slot != slot {
		t.Fatalf("CorruptError.Slot = %d, want %d", ce.Slot, slot)
	}
	if err := a.CheckRecord(slot, 7); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("CheckRecord: want ErrCorrupt, got %v", err)
	}
}

func TestMediaBitRotIsDeterministic(t *testing.T) {
	read := func() error {
		a, _ := newMediaArena(t, 8, 7,
			faultinject.Rule{Point: faultinject.PointPMemFlush, Kind: faultinject.KindBitRot, Prob: 0.5})
		for i := uint64(0); i < 4; i++ {
			slot := mustAlloc(t, a)
			if err := a.WriteRecord(slot, i, 1, encPayload(a, float32(i), 0, 0, 0)); err != nil {
				t.Fatal(err)
			}
		}
		var firstErr error
		for slot := uint32(0); slot < 4; slot++ {
			if err := a.CheckRecord(slot, uint64(slot)); err != nil && firstErr == nil {
				firstErr = err
			}
		}
		return firstErr
	}
	e1, e2 := read(), read()
	if (e1 == nil) != (e2 == nil) {
		t.Fatalf("same seed, different corruption outcome: %v vs %v", e1, e2)
	}
	if e1 != nil && e1.Error() != e2.Error() {
		t.Fatalf("same seed, different corruption site: %v vs %v", e1, e2)
	}
}

func TestMediaDroppedFlushLostAtCrash(t *testing.T) {
	a, dev := newMediaArena(t, 8, 42,
		faultinject.Rule{Point: faultinject.PointPMemFlush, Kind: faultinject.KindDrop, Nth: 1})
	slot := mustAlloc(t, a)
	if err := a.WriteRecord(slot, 9, 5, encPayload(a, 4, 3, 2, 1)); err != nil {
		t.Fatal(err)
	}
	// The volatile image still holds the record: reads succeed pre-crash
	// (a dropped flush is exactly the silent failure mode — nothing
	// observable until power is lost).
	if err := a.CheckRecord(slot, 9); err != nil {
		t.Fatalf("pre-crash read after dropped flush: %v", err)
	}
	dev.Crash()
	if err := a.CheckRecord(slot, 9); err == nil {
		t.Fatal("record survived a crash although its flush was dropped")
	}
}

func TestMediaPoisonPersistsUntilRewritten(t *testing.T) {
	a, dev := newMediaArena(t, 8, 42,
		faultinject.Rule{Point: faultinject.PointPMemFlush, Kind: faultinject.KindPoison, Nth: 1})
	slot := mustAlloc(t, a)
	if err := a.WriteRecord(slot, 11, 2, encPayload(a, 1, 1, 1, 1)); err != nil {
		t.Fatal(err)
	}
	dst := make([]byte, a.PayloadBytes())
	err := a.ReadPayloadVerified(slot, 11, dst)
	if !errors.Is(err, ErrPoisoned) {
		t.Fatalf("want ErrPoisoned, got %v", err)
	}
	if !IsIntegrity(err) {
		t.Fatalf("IsIntegrity(%v) = false", err)
	}
	// Poison is a media property: it survives power loss.
	dev.Crash()
	if err := a.CheckRecord(slot, 11); !errors.Is(err, ErrPoisoned) {
		t.Fatalf("poison did not survive crash: %v", err)
	}
	// A fault-free flush fully covering the range clears it (the rewrite
	// re-maps the poisoned lines), after which the slot serves again.
	if err := a.WriteRecord(slot, 11, 3, encPayload(a, 2, 2, 2, 2)); err != nil {
		t.Fatal(err)
	}
	if err := a.ReadPayloadVerified(slot, 11, dst); err != nil {
		t.Fatalf("read after healing rewrite: %v", err)
	}
}

func TestWriteRecordVerifiedHealsRotAndDrop(t *testing.T) {
	a, _ := newMediaArena(t, 8, 42,
		faultinject.Rule{Point: faultinject.PointPMemFlush, Kind: faultinject.KindBitRot, Nth: 1},
		faultinject.Rule{Point: faultinject.PointPMemFlush, Kind: faultinject.KindDrop, Nth: 2})
	slot := mustAlloc(t, a)
	if err := a.WriteRecordVerified(slot, 5, 1, encPayload(a, 9, 8, 7, 6)); err != nil {
		t.Fatalf("verified write did not heal transient faults: %v", err)
	}
	dst := make([]byte, a.PayloadBytes())
	if err := a.ReadPayloadVerified(slot, 5, dst); err != nil {
		t.Fatalf("read after verified write: %v", err)
	}
	var rec [4]float32
	DecodeFloats(rec[:], dst)
	if rec != [4]float32{9, 8, 7, 6} {
		t.Fatalf("payload %v after healed write", rec)
	}
}

func TestWriteRecordVerifiedReportsPersistentPoison(t *testing.T) {
	a, _ := newMediaArena(t, 8, 42,
		faultinject.Rule{Point: faultinject.PointPMemFlush, Kind: faultinject.KindPoison, Prob: 1})
	slot := mustAlloc(t, a)
	err := a.WriteRecordVerified(slot, 3, 1, encPayload(a, 1, 2, 3, 4))
	if !errors.Is(err, ErrPoisoned) {
		t.Fatalf("want ErrPoisoned from verified write into poisoned media, got %v", err)
	}
}

func TestScanSkipsPoisonedSlots(t *testing.T) {
	a, _ := newMediaArena(t, 8, 42,
		faultinject.Rule{Point: faultinject.PointPMemFlush, Kind: faultinject.KindPoison, Nth: 2})
	s1 := mustAlloc(t, a)
	s2 := mustAlloc(t, a)
	if err := a.WriteRecord(s1, 1, 1, encPayload(a, 1, 0, 0, 0)); err != nil {
		t.Fatal(err)
	}
	if err := a.WriteRecord(s2, 2, 1, encPayload(a, 2, 0, 0, 0)); err != nil {
		t.Fatal(err)
	}
	var keys []uint64
	if err := a.Scan(func(r Record) error { keys = append(keys, r.Key); return nil }); err != nil {
		t.Fatal(err)
	}
	if len(keys) != 1 || keys[0] != 1 {
		t.Fatalf("scan over poisoned arena yielded %v, want [1]", keys)
	}
}

func TestCheckpointHeaderWordCorruptionIsTyped(t *testing.T) {
	a, dev := newMediaArena(t, 8, 42)
	if err := a.SetCheckpointedBatch(5); err != nil {
		t.Fatal(err)
	}
	if got, err := a.CheckpointedBatch(); err != nil || got != 5 {
		t.Fatalf("CheckpointedBatch = %d, %v", got, err)
	}
	// Smash the word: the verified publish left nothing saved there, so the
	// image is the durable word. An all-zero word fails the CRC-packed
	// validation.
	zero := make([]byte, 8)
	copy(dev.image[offCkptID:], zero)
	if _, err := a.CheckpointedBatch(); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("corrupt header word: want ErrCorrupt, got %v", err)
	}
}

// TestVerifiedReadChargesMatchUnverified pins the virtual-time invariant:
// the integrity-checked serve path charges exactly what the unverified one
// does (the checksum is CPU work over already-fetched bytes), so arming
// verification cannot move any simulated-performance result.
func TestVerifiedReadChargesMatchUnverified(t *testing.T) {
	run := func(verified bool) simclock.Snapshot {
		payload := FloatBytes(4)
		m := simclock.NewMeter()
		dev := NewDevice(ArenaLayout(payload, 8), device.NewTimedPMem(m))
		t.Cleanup(func() { dev.Close() })
		a, err := NewArena(dev, payload, 8)
		if err != nil {
			t.Fatal(err)
		}
		slot := mustAlloc(t, a)
		if err := a.WriteRecord(slot, 1, 1, encPayload(a, 1, 2, 3, 4)); err != nil {
			t.Fatal(err)
		}
		before := m.Snapshot()
		dst := make([]byte, a.PayloadBytes())
		if verified {
			err = a.ReadPayloadVerified(slot, 1, dst)
		} else {
			err = a.ReadPayload(slot, dst)
		}
		if err != nil {
			t.Fatal(err)
		}
		return m.Snapshot().Sub(before)
	}
	if got, want := run(true), run(false); got != want {
		t.Fatalf("verified read charges %+v, unverified %+v — simulated results would move", got, want)
	}
}
