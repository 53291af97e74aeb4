package pmem

import (
	"bytes"
	"errors"
	"fmt"
	"testing"

	"openembedding/internal/device"
	"openembedding/internal/faultinject"
	"openembedding/internal/simclock"
)

// batchRows builds n distinct rows of the arena's payload width.
func batchRows(a *Arena, n int, salt float32) [][]float32 {
	rows := make([][]float32, n)
	for i := range rows {
		rows[i] = make([]float32, a.PayloadBytes()/4)
		for j := range rows[i] {
			rows[i][j] = salt + float32(i) + float32(j)/16
		}
	}
	return rows
}

// batchOf reserves a slot per row and returns the group commit for them:
// record i carries key base+i at the given version.
func batchOf(t *testing.T, a *Arena, rows [][]float32, base uint64, version int64) []WriteRec {
	t.Helper()
	recs := make([]WriteRec, len(rows))
	for i := range recs {
		recs[i] = WriteRec{Key: base + uint64(i), Version: version, Row: rows[i], Old: NoSlot}
	}
	if n := a.AllocN(recs); n != len(recs) {
		t.Fatalf("AllocN reserved %d of %d", n, len(recs))
	}
	return recs
}

// TestWriteBatchMatchesPerRecordWrites: a group commit leaves the media,
// the traffic counters and the meter exactly where the same records written
// one WriteRecord at a time leave them.
func TestWriteBatchMatchesPerRecordWrites(t *testing.T) {
	const n = 9
	type run struct {
		dev   *Device
		meter *simclock.Meter
	}
	build := func(batched bool) run {
		m := simclock.NewMeter()
		payload := FloatBytes(6)
		dev := NewDevice(ArenaLayout(payload, 32), device.NewTimedPMem(m))
		t.Cleanup(func() { dev.Close() })
		a, err := NewArena(dev, payload, 32)
		if err != nil {
			t.Fatal(err)
		}
		rows := batchRows(a, n, 0.5)
		recs := batchOf(t, a, rows, 100, 7)
		if batched {
			if done, err := a.WriteBatch(recs, false); err != nil || done != n {
				t.Fatalf("WriteBatch = %d, %v", done, err)
			}
		} else {
			for _, r := range recs {
				if err := a.WriteRecord(r.Slot, r.Key, r.Version, encPayload(a, r.Row...)); err != nil {
					t.Fatal(err)
				}
			}
		}
		return run{dev, m}
	}
	one, many := build(false), build(true)
	if !bytes.Equal(one.dev.image, many.dev.image) || !bytes.Equal(one.dev.durableImage(), many.dev.durableImage()) {
		t.Fatal("group commit and per-record writes left different bytes on the device")
	}
	if one.dev.Stats() != many.dev.Stats() {
		t.Fatalf("device counters differ: per-record %+v, batched %+v", one.dev.Stats(), many.dev.Stats())
	}
	for _, c := range simclock.Categories() {
		if one.meter.Total(c) != many.meter.Total(c) || one.meter.Ops(c) != many.meter.Ops(c) {
			t.Fatalf("%v: per-record %v/%d ops, batched %v/%d ops", c,
				one.meter.Total(c), one.meter.Ops(c), many.meter.Total(c), many.meter.Ops(c))
		}
	}
}

// TestWriteBatchCrashAfterEveryPrefix enumerates the crash points of a group
// commit: power fails after k of the batch's n record flushes, for every k.
// The flushes from the (k+1)th on never reach the media (a drop rule from
// that occurrence models the write-backs the failure cut off). After the
// crash every record of the batch is whole or absent — never torn — the
// first k are exactly the ones present, and the records the batch would
// have superseded are untouched.
func TestWriteBatchCrashAfterEveryPrefix(t *testing.T) {
	const n = 7
	for k := 0; k <= n; k++ {
		t.Run(fmt.Sprintf("after=%d", k), func(t *testing.T) {
			a, dev := newMediaArena(t, 32, 1)
			dev.SetMediaFaults(nil, "")
			old := batchOf(t, a, batchRows(a, n, 100), 1, 3)
			if _, err := a.WriteBatch(old, false); err != nil {
				t.Fatal(err)
			}
			dev.SetMediaFaults(faultinject.New(1, faultinject.Rule{
				Point: faultinject.PointPMemFlush, Kind: faultinject.KindDrop, Prob: 1, From: uint64(k) + 1,
			}), "m")
			rows := batchRows(a, n, 200)
			recs := batchOf(t, a, rows, 1, 9)
			if done, err := a.WriteBatch(recs, false); err != nil || done != n {
				t.Fatalf("WriteBatch = %d, %v", done, err)
			}
			dev.Crash()

			ra, err := OpenArena(dev)
			if err != nil {
				t.Fatal(err)
			}
			type kv struct {
				key     uint64
				version int64
			}
			got := map[kv][]byte{}
			if err := ra.Scan(func(r Record) error {
				got[kv{r.Key, r.Version}] = append([]byte(nil), r.Payload...)
				return nil
			}); err != nil {
				t.Fatal(err)
			}
			want := map[kv][]byte{}
			for i := range old {
				want[kv{old[i].Key, 3}] = encPayload(a, old[i].Row...)
			}
			for i := 0; i < k; i++ {
				want[kv{recs[i].Key, 9}] = encPayload(a, rows[i]...)
			}
			if len(got) != len(want) {
				t.Fatalf("recovered %d records, want %d (the %d superseded ones and the first %d of the batch)", len(got), len(want), n, k)
			}
			for id, payload := range want {
				if !bytes.Equal(got[id], payload) {
					t.Fatalf("record key %d version %d: missing or not bit-exact after the crash", id.key, id.version)
				}
			}
		})
	}
}

// TestWriteBatchFaultOccurrencesPerRecord: the media-fault model is consulted
// once per flush in record order, retries included, so a seeded schedule hits
// the same records of a group commit as it hits when they are written one
// verified record at a time — and heals to the same bytes.
func TestWriteBatchFaultOccurrencesPerRecord(t *testing.T) {
	const n = 24
	// Scripted occurrences (the seed picks which bit rots): a rotted flush,
	// a dropped flush whose retry is dropped too, a poisoned line the
	// rewrite heals, and a second rot late in the batch.
	fault := func(kind faultinject.Kind, nth uint64) faultinject.Rule {
		return faultinject.Rule{Point: faultinject.PointPMemFlush, Kind: kind, Nth: nth}
	}
	rules := []faultinject.Rule{
		fault(faultinject.KindBitRot, 2), fault(faultinject.KindDrop, 6), fault(faultinject.KindDrop, 7),
		fault(faultinject.KindPoison, 13), fault(faultinject.KindBitRot, 25),
	}
	for _, seed := range []uint64{1, 7, 42} {
		build := func(batched bool) (*Device, DeviceStats) {
			a, dev := newMediaArena(t, 64, seed, rules...)
			rows := batchRows(a, n, 3)
			recs := batchOf(t, a, rows, 500, 2)
			if batched {
				if done, err := a.WriteBatch(recs, true); err != nil || done != n {
					t.Fatalf("seed %d: WriteBatch = %d, %v", seed, done, err)
				}
			} else {
				for _, r := range recs {
					if err := a.WriteRecordVerified(r.Slot, r.Key, r.Version, encPayload(a, r.Row...)); err != nil {
						t.Fatalf("seed %d: %v", seed, err)
					}
				}
			}
			return dev, dev.Stats()
		}
		one, oneStats := build(false)
		many, manyStats := build(true)
		if oneStats.FlushOps != 1+n+5 { // the format's header flush, the records, the retries
			t.Fatalf("seed %d: %d flushes for %d records, want one more per scripted fault", seed, oneStats.FlushOps-1, n)
		}
		if oneStats != manyStats {
			t.Fatalf("seed %d: per-record %+v, batched %+v: the fault schedule landed differently", seed, oneStats, manyStats)
		}
		if !bytes.Equal(one.durableImage(), many.durableImage()) {
			t.Fatalf("seed %d: durable images differ", seed)
		}
	}
}

// TestWriteBatchStopsAtTheRecordThatFails: a record the media refuses (every
// flush poisons it) ends the commit there; the records before it are durable
// and the ones after it were not written.
func TestWriteBatchStopsAtTheRecordThatFails(t *testing.T) {
	const n, bad = 6, 3
	a, dev := newMediaArena(t, 32, 9, faultinject.Rule{
		Point: faultinject.PointPMemFlush, Kind: faultinject.KindPoison, Prob: 1, From: bad + 1,
	})
	recs := batchOf(t, a, batchRows(a, n, 1), 40, 5)
	done, err := a.WriteBatch(recs, true)
	if done != bad || !errors.Is(err, ErrPoisoned) {
		t.Fatalf("WriteBatch = %d, %v; want %d records and a poison error", done, err, bad)
	}
	dev.SetMediaFaults(nil, "")
	for i, r := range recs {
		rec, err := a.ReadRecord(r.Slot)
		switch {
		case i < bad && (err != nil || rec.Key != r.Key || rec.Version != r.Version):
			t.Fatalf("record %d, written before the failure, does not read back: %v", i, err)
		case i > bad && err == nil:
			t.Fatalf("record %d, after the failure, was written", i)
		}
	}
}

// TestAllocNStopsWhenFull: a partial reservation is a prefix, and the slots
// come back once something is freed.
func TestAllocNStopsWhenFull(t *testing.T) {
	a := newTestArena(t, 1, 4)
	first := make([]WriteRec, 3)
	if n := a.AllocN(first); n != 3 {
		t.Fatalf("reserved %d of 3 in an empty arena of 4", n)
	}
	more := make([]WriteRec, 3)
	if n := a.AllocN(more); n != 1 {
		t.Fatalf("reserved %d, want 1 (one slot left)", n)
	}
	if n := a.AllocN(more[1:]); n != 0 {
		t.Fatalf("reserved %d from a full arena", n)
	}
	if a.LiveSlots() != 4 {
		t.Fatalf("LiveSlots = %d", a.LiveSlots())
	}
	// Retire two through a commit's records, seal and reclaim them.
	first[0].Old, first[0].OldVersion, first[0].Version = first[1].Slot, 1, 2
	first[2].Old = NoSlot
	a.RetireBatch(first[:1])
	a.RetireBatch(first[2:])
	if a.RetiredCount() != 1 {
		t.Fatalf("RetiredCount = %d, want 1 (NoSlot supersedes nothing)", a.RetiredCount())
	}
	if freed := a.Reclaim(2, nil); freed != 1 || a.LiveSlots() != 3 {
		t.Fatalf("freed %d, %d live", freed, a.LiveSlots())
	}
	if n := a.AllocN(more[1:]); n != 1 || more[1].Slot != first[1].Slot {
		t.Fatalf("reserved %d, slot %d; want the reclaimed slot %d", n, more[1].Slot, first[1].Slot)
	}
}
