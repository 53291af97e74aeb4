package pmem

import (
	"bytes"
	"encoding/binary"
	"errors"
	"testing"

	"openembedding/internal/device"
	"openembedding/internal/simclock"
)

// FuzzArenaRecover fuzzes crash points in the record-persist path: it writes
// a set of fully durable records, then stores one more record whose flush is
// cut short at an arbitrary byte prefix (the CLWB-granularity crash window),
// crashes, and recovers with OpenArena+Scan. Recovery must never surface a
// torn entry: every record the scan yields must be byte-identical to a
// record that was durably written — the torn slot may legally appear only if
// the flushed prefix covered the entire record.
//
// Two media-fault dimensions ride along: flipBit (non-zero) rots one bit of
// the first durable record after the crash — the record must then vanish
// from the scan (detected, never served as garbage) — and truncBytes
// (non-zero) re-opens a truncated copy of the durable image, which must fail
// with a typed error rather than panic.
func FuzzArenaRecover(f *testing.F) {
	f.Add(uint8(3), uint64(42), int16(0), uint8(7), uint16(0), uint16(0))
	f.Add(uint8(1), uint64(1), int16(5), uint8(0), uint16(0), uint16(0))
	f.Add(uint8(5), uint64(99), int16(23), uint8(255), uint16(0), uint16(0)) // header torn mid-CRC
	f.Add(uint8(0), uint64(0), int16(40), uint8(1), uint16(0), uint16(0))    // payload fully covered, tail missing
	f.Add(uint8(7), uint64(7), int16(-1), uint8(3), uint16(0), uint16(0))    // full flush: record must survive
	f.Add(uint8(4), uint64(11), int16(-1), uint8(9), uint16(1), uint16(0))   // bit-rot in a durable record's key
	f.Add(uint8(3), uint64(5), int16(-1), uint8(2), uint16(170), uint16(0))  // bit-rot mid-CRC field
	f.Add(uint8(6), uint64(13), int16(-1), uint8(4), uint16(300), uint16(0))
	f.Add(uint8(2), uint64(3), int16(0), uint8(1), uint16(0), uint16(1))  // image truncated to 1 byte
	f.Add(uint8(2), uint64(3), int16(0), uint8(1), uint16(0), uint16(63)) // truncated inside the header
	f.Add(uint8(5), uint64(21), int16(12), uint8(8), uint16(0), uint16(200))

	f.Fuzz(func(t *testing.T, durableN uint8, keySeed uint64, flushedPrefix int16, fill uint8, flipBit uint16, truncBytes uint16) {
		const (
			payloadFloats = 4
			slots         = 16
		)
		payload := FloatBytes(payloadFloats)
		m := simclock.NewMeter()
		dev := NewDevice(ArenaLayout(payload, slots), device.NewTimedPMem(m))
		t.Cleanup(func() { dev.Close() })
		a, err := NewArena(dev, payload, slots)
		if err != nil {
			t.Fatal(err)
		}

		// Durable prefix of the history: records that must survive any crash.
		want := map[uint64][]byte{} // key -> full on-media record bytes
		n := int(durableN) % (slots - 1)
		var firstSlot uint32
		var firstKey uint64
		for i := 0; i < n; i++ {
			key := keySeed + uint64(i)*1000003
			slot, err := a.Alloc()
			if err != nil {
				t.Fatal(err)
			}
			if i == 0 {
				firstSlot, firstKey = slot, key
			}
			pl := make([]byte, payload)
			for j := range pl {
				pl[j] = byte(uint64(j)*31 + key + uint64(fill))
			}
			if err := a.WriteRecord(slot, key, int64(i+1), pl); err != nil {
				t.Fatal(err)
			}
			rec := make([]byte, slotHeaderLen+payload)
			if err := dev.Read(a.slotOffset(slot), rec); err != nil {
				t.Fatal(err)
			}
			want[key] = rec
		}

		// One more record, torn: full volatile store, partial flush.
		tornSlot, err := a.Alloc()
		if err != nil {
			t.Fatal(err)
		}
		tornKey := keySeed ^ 0xdeadbeef
		for want[tornKey] != nil { // must not collide with a durable key
			tornKey++
		}
		tornPayload := make([]byte, payload)
		for j := range tornPayload {
			tornPayload[j] = byte(int(fill) + j)
		}
		recLen := slotHeaderLen + payload
		buf := make([]byte, recLen)
		binary.LittleEndian.PutUint64(buf[0:], tornKey)
		binary.LittleEndian.PutUint64(buf[8:], uint64(n+1))
		binary.LittleEndian.PutUint32(buf[16:], uint32(payload))
		copy(buf[slotHeaderLen:], tornPayload)
		binary.LittleEndian.PutUint32(buf[20:], a.recordCRC(buf))
		off := a.slotOffset(tornSlot)
		if err := dev.Write(off, buf); err != nil {
			t.Fatal(err)
		}
		// Flush an arbitrary prefix; <0 or >=recLen means a complete flush.
		pfx := int(flushedPrefix)
		fullFlush := pfx < 0 || pfx >= recLen
		if fullFlush {
			pfx = recLen
		}
		if pfx > 0 {
			if err := dev.Flush(off, pfx); err != nil {
				t.Fatal(err)
			}
		}
		if fullFlush {
			want[tornKey] = append([]byte(nil), buf...)
		}

		dev.Crash()

		// Bit-rot one durable record post-crash: the record must be detected
		// (skipped by the scan), never surfaced as garbage. Every record byte
		// is CRC-covered, so any single flip invalidates the slot.
		rotted := false
		if flipBit != 0 && n > 0 {
			bit := int(flipBit-1) % (recLen * 8)
			rotOff := a.slotOffset(firstSlot) + bit/8
			dev.image[rotOff] ^= 1 << (bit % 8) // the crash left the image durable
			delete(want, firstKey)
			rotted = true
		}

		// Re-open a truncated copy of the durable image: must fail with a
		// typed error (ErrBadImage or ErrOutOfRange), never panic or succeed.
		if truncBytes != 0 {
			fullCap := dev.Capacity()
			size := 1 + int(truncBytes)%(fullCap-1)
			short := NewDevice(size, device.NewTimedPMem(simclock.NewMeter()))
			t.Cleanup(func() { short.Close() })
			copy(short.image, dev.durableImage()[:size])
			if _, err := OpenArena(short); err == nil {
				t.Fatalf("OpenArena on image truncated to %d/%d bytes succeeded", size, fullCap)
			} else if !errors.Is(err, ErrBadImage) && !errors.Is(err, ErrOutOfRange) {
				t.Fatalf("OpenArena on truncated image: untyped error %v", err)
			}
		}

		// Recover. Scan must yield exactly the durable records, bit-exact.
		ra, err := OpenArena(dev)
		if err != nil {
			t.Fatal(err)
		}
		seen := map[uint64]bool{}
		err = ra.Scan(func(r Record) error {
			if rotted && r.Slot == firstSlot {
				t.Fatalf("recovery surfaced the bit-rotted record in slot %d (key %d) as valid", r.Slot, r.Key)
			}
			exp, ok := want[r.Key]
			if !ok {
				t.Fatalf("recovery surfaced record for key %d that was never durably written (torn entry leaked, flushed prefix %d/%d)", r.Key, pfx, recLen)
			}
			if seen[r.Key] {
				t.Fatalf("recovery surfaced key %d twice", r.Key)
			}
			seen[r.Key] = true
			got := make([]byte, slotHeaderLen+payload)
			if err := dev.Read(ra.slotOffset(r.Slot), got); err != nil {
				return err
			}
			if !bytes.Equal(got, exp) {
				t.Fatalf("recovered record for key %d differs from what was durably written", r.Key)
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		for key := range want {
			if !seen[key] {
				t.Fatalf("durably written record for key %d lost after crash", key)
			}
		}
	})
}
