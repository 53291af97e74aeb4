package pmem

import (
	"errors"
	"testing"
	"time"

	"openembedding/internal/device"
	"openembedding/internal/faultinject"
	"openembedding/internal/simclock"
)

// newMeteredArena is newTestArena but keeps the meter, for tests that pin
// the scattered read's charge rule.
func newMeteredArena(t *testing.T, payloadFloats, slots int) (*Arena, *simclock.Meter) {
	t.Helper()
	payload := FloatBytes(payloadFloats)
	d, m := newTestDevice(t, ArenaLayout(payload, slots))
	a, err := NewArena(d, payload, slots)
	if err != nil {
		t.Fatal(err)
	}
	return a, m
}

// writeSeq fills count consecutive slots with records keyed base+i whose
// payloads encode (i, i+1, i+2, i+3), returning the first slot.
func writeSeq(t *testing.T, a *Arena, base uint64, count int) uint32 {
	t.Helper()
	first := uint32(0)
	for i := 0; i < count; i++ {
		slot := mustAlloc(t, a)
		if i == 0 {
			first = slot
		}
		f := float32(i)
		if err := a.WriteRecord(slot, base+uint64(i), int64(i), encPayload(a, f, f+1, f+2, f+3)); err != nil {
			t.Fatal(err)
		}
	}
	return first
}

// seqRecs is the read list of the count records writeSeq(base) wrote from
// slot lo on.
func seqRecs(lo uint32, base uint64, count int) []ReadRec {
	recs := make([]ReadRec, count)
	for i := range recs {
		recs[i] = ReadRec{Slot: lo + uint32(i), Key: base + uint64(i)}
	}
	return recs
}

// checkScatteredMatchesIndividual: one scattered call over recs serves every
// payload bit-identically to len(recs) individual verified reads of a twin
// arena, in order, and charges exactly the same virtual time and op count,
// so batching is invisible to the simulation.
func checkScatteredMatchesIndividual(t *testing.T, a, b *Arena, am, bm *simclock.Meter, recs []ReadRec) {
	t.Helper()
	s0, s1 := am.Snapshot(), bm.Snapshot()
	got := make([][]byte, 0, len(recs))
	served, err := a.ReadScatteredVerified(recs, func(i int, payload []byte) {
		if i != len(got) {
			t.Fatalf("record %d served at position %d: out of order", i, len(got))
		}
		got = append(got, append([]byte(nil), payload...))
	})
	if err != nil || served != len(recs) {
		t.Fatalf("served %d of %d records: %v", served, len(recs), err)
	}
	one := make([]byte, b.PayloadBytes())
	for i, r := range recs {
		if err := b.ReadPayloadVerified(r.Slot, r.Key, one); err != nil {
			t.Fatal(err)
		}
		if string(got[i]) != string(one) {
			t.Fatalf("record %d: scattered %v, individual %v", i, got[i], one)
		}
	}
	if da, db := am.Snapshot().Sub(s0), bm.Snapshot().Sub(s1); da != db {
		t.Fatalf("scattered read charges differ from %d individual reads:\nscattered  %v\nindividual %v", len(recs), da, db)
	}
}

// TestReadScatteredVerifiedAdjacent: records in consecutive slots — what the
// contiguous form this call replaced was limited to — over more than one
// touch block.
func TestReadScatteredVerifiedAdjacent(t *testing.T) {
	const n = 2*overlapBlock + 3
	a, am := newMeteredArena(t, 4, n+2)
	b, bm := newMeteredArena(t, 4, n+2)
	lo := writeSeq(t, a, 100, n)
	writeSeq(t, b, 100, n)
	checkScatteredMatchesIndividual(t, a, b, am, bm, seqRecs(lo, 100, n))
}

// TestReadScatteredVerifiedNonAdjacent: the same contract when the records
// sit anywhere — every third slot, visited in descending slot order, a slot
// repeated.
func TestReadScatteredVerifiedNonAdjacent(t *testing.T) {
	const n = 60
	a, am := newMeteredArena(t, 4, n)
	b, bm := newMeteredArena(t, 4, n)
	lo := writeSeq(t, a, 100, n)
	writeSeq(t, b, 100, n)
	var recs []ReadRec
	for i := n - 1; i >= 0; i -= 3 {
		recs = append(recs, ReadRec{Slot: lo + uint32(i), Key: 100 + uint64(i)})
	}
	recs = append(recs, recs[0])
	checkScatteredMatchesIndividual(t, a, b, am, bm, recs)
}

// TestReadScatteredVerifiedCorruptMiddle: a rotted record in the middle of
// the list fails with the same typed *CorruptError (correct slot) a
// per-record read reports; every record before it is served and charged, the
// failing record is charged (its bytes were read), and nothing after it is
// served or charged.
func TestReadScatteredVerifiedCorruptMiddle(t *testing.T) {
	const n, bad = 6, 3
	a, m := newMeteredArena(t, 4, 8)
	lo := writeSeq(t, a, 100, n)
	flipDurableBit(t, a, a.slotOffset(lo+bad)+slotHeaderLen, 2)

	s0 := m.Snapshot()
	var got []int
	served, err := a.ReadScatteredVerified(seqRecs(lo, 100, n), func(i int, payload []byte) { got = append(got, i) })
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("want ErrCorrupt, got %v", err)
	}
	var ce *CorruptError
	if !errors.As(err, &ce) {
		t.Fatalf("want *CorruptError, got %T", err)
	}
	if ce.Slot != lo+bad {
		t.Fatalf("CorruptError.Slot = %d, want %d", ce.Slot, lo+bad)
	}
	if served != bad || len(got) != bad {
		t.Fatalf("served %d (%v), want records 0..%d", served, got, bad-1)
	}
	d := m.Snapshot().Sub(s0)
	wantNS := time.Duration(bad+1) * device.PMem().ReadCost(a.PayloadBytes())
	if d.Total(simclock.PMemRead) != wantNS || d.OpCount(simclock.PMemRead) != bad+1 {
		t.Fatalf("corrupt list charged %v/%d ops, want %v/%d (served + failing record)",
			d.Total(simclock.PMemRead), d.OpCount(simclock.PMemRead), wantNS, bad+1)
	}
}

// TestReadScatteredVerifiedKeyMismatch: a record whose stored key is not the
// one the index expects is structural corruption; the typed error carries
// the mismatching slot and the failing record is charged.
func TestReadScatteredVerifiedKeyMismatch(t *testing.T) {
	const n, bad = 4, 2
	a, m := newMeteredArena(t, 4, 8)
	lo := writeSeq(t, a, 100, n)
	recs := seqRecs(lo, 100, n)
	recs[bad].Key = 999 // the index thinks this slot holds another key

	s0 := m.Snapshot()
	served, err := a.ReadScatteredVerified(recs, func(int, []byte) {})
	var ce *CorruptError
	if !errors.As(err, &ce) {
		t.Fatalf("want *CorruptError, got %v", err)
	}
	if ce.Slot != lo+bad || ce.Key != 999 {
		t.Fatalf("CorruptError = slot %d key %d, want slot %d key 999", ce.Slot, ce.Key, lo+bad)
	}
	if served != bad {
		t.Fatalf("served %d, want records 0..%d", served, bad-1)
	}
	if ops := m.Snapshot().Sub(s0).OpCount(simclock.PMemRead); ops != bad+1 {
		t.Fatalf("key mismatch charged %d reads, want %d (served + failing record)", ops, bad+1)
	}
}

// TestReadScatteredVerifiedPoison: a poisoned record bounds the read —
// records before it are served and charged, the poisoned record is neither
// (mirroring ReadPayloadVerified, which charges nothing for a poisoned
// read), and the error is the typed media error. The poisoned record sits in
// the second touch block, so the first block's records are all served.
func TestReadScatteredVerifiedPoison(t *testing.T) {
	const n, bad = overlapBlock + 5, overlapBlock + 2
	payload := FloatBytes(4)
	m := simclock.NewMeter()
	dev := NewDevice(ArenaLayout(payload, n+2), device.NewTimedPMem(m))
	t.Cleanup(func() { dev.Close() })
	a, err := NewArena(dev, payload, n+2)
	if err != nil {
		t.Fatal(err)
	}
	dev.SetMediaFaults(faultinject.New(1), "m") // armed, no scripted faults
	lo := writeSeq(t, a, 100, n)
	dev.media.poison(a.slotOffset(lo+bad)+4, 8)

	s0 := m.Snapshot()
	var got []int
	served, err := a.ReadScatteredVerified(seqRecs(lo, 100, n), func(i int, payload []byte) { got = append(got, i) })
	if !errors.Is(err, ErrPoisoned) {
		t.Fatalf("want ErrPoisoned, got %v", err)
	}
	if !IsIntegrity(err) {
		t.Fatalf("IsIntegrity(%v) = false", err)
	}
	if served != bad || len(got) != bad {
		t.Fatalf("served %d (%v), want records 0..%d", served, got, bad-1)
	}
	d := m.Snapshot().Sub(s0)
	if d.OpCount(simclock.PMemRead) != bad {
		t.Fatalf("poisoned list charged %d reads, want %d (poisoned record uncharged)",
			d.OpCount(simclock.PMemRead), bad)
	}
}

// TestReadScatteredVerifiedBounds: an empty list is a no-op, and a record
// past the arena end fails the way the per-record read does — the records
// before it served and charged, itself neither read nor charged. The arena
// has no byte past its last slot, so a touch pass that read beyond a
// record's own bounds check would fault here.
func TestReadScatteredVerifiedBounds(t *testing.T) {
	a, m := newMeteredArena(t, 4, 4)
	lo := writeSeq(t, a, 7, 4)
	if served, err := a.ReadScatteredVerified(nil, nil); served != 0 || err != nil {
		t.Fatalf("empty list: served %d, %v", served, err)
	}
	s0 := m.Snapshot()
	recs := append(seqRecs(lo+2, 9, 2), ReadRec{Slot: lo + 4, Key: 0}, ReadRec{Slot: lo, Key: 7})
	served, err := a.ReadScatteredVerified(recs, func(i int, payload []byte) {
		if i >= 2 {
			t.Fatalf("served record %d, at or past the out-of-range one", i)
		}
	})
	if !errors.Is(err, ErrOutOfRange) || served != 2 {
		t.Fatalf("list with a slot past the arena end: served %d, %v", served, err)
	}
	if d := m.Snapshot().Sub(s0); d.OpCount(simclock.PMemRead) != 2 {
		t.Fatalf("charged %d reads, want the 2 served (the out-of-range record uncharged)", d.OpCount(simclock.PMemRead))
	}
}
