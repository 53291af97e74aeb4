package pmem

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/bits"
	"slices"
	"sync/atomic"
)

// CorruptError reports a record (or header word) that failed its CRC32C.
// It unwraps to ErrCorrupt; Key is best-effort (decoded from the corrupt
// bytes, so it may itself be damaged).
type CorruptError struct {
	Key  uint64
	Slot uint32
	Off  int64
}

func (e *CorruptError) Error() string {
	return fmt.Sprintf("pmem: corrupt record: key %d slot %d off %d", e.Key, e.Slot, e.Off)
}

func (e *CorruptError) Unwrap() error { return ErrCorrupt }

// IntegrityError marks this as a data-integrity failure (see IsIntegrity).
func (e *CorruptError) IntegrityError() bool { return true }

// SlotOffset returns the device offset of slot's record. Exposed for
// integrity tooling and tests that inject corruption at a known site.
func (a *Arena) SlotOffset(slot uint32) int { return a.slotOffset(slot) }

// ReadPayloadVerified copies the payload of the record in slot into dst
// after validating the record CRC32C and that the record belongs to key.
// It is the integrity-checked serve path: it charges exactly the same
// virtual time as the unverified ReadPayload (one payload-sized PMem read —
// the CRC is computed by the CPU over bytes the load already fetched), so
// enabling verification does not move the simulated-performance results.
//
// oevet:charge read
func (a *Arena) ReadPayloadVerified(slot uint32, key uint64, dst []byte) error {
	return a.readVerified(slot, key, dst, nil)
}

// ReadRowVerified is ReadPayloadVerified for a caller that wants floats: it
// decodes the first len(row) floats of the verified payload straight from
// the device image into row, with no byte buffer in between. A whole row
// (PayloadBytes/4 floats) takes the record's weights and optimizer state; a
// dim-sized one takes the weights alone.
//
// oevet:charge read
func (a *Arena) ReadRowVerified(slot uint32, key uint64, row []float32) error {
	return a.readVerified(slot, key, nil, row)
}

// readVerified validates the record in slot against key and copies its
// payload out, as bytes into dst or decoded into row (whichever is set).
//
// oevet:charge read
func (a *Arena) readVerified(slot uint32, key uint64, dst []byte, row []float32) error {
	off := a.slotOffset(slot)
	n := slotHeaderLen + a.payloadBytes
	if err := a.dev.check(off, n); err != nil {
		return err
	}
	if err := a.dev.poisonCheck(off, n); err != nil {
		return err
	}
	a.dev.crashMu.RLock()
	rec, err := a.decode(slot, a.dev.image[off:off+n])
	switch {
	case err != nil:
	case rec.Key != key:
		err = &CorruptError{Key: key, Slot: slot, Off: int64(off)}
	case row != nil:
		DecodeFloats(row, rec.Payload)
	default:
		copy(dst[:a.payloadBytes], rec.Payload)
	}
	a.dev.crashMu.RUnlock()
	a.dev.timed.ChargeRead(a.payloadBytes)
	return err
}

// ChargeRecordReads charges the payload-sized read each of count verified
// record fetches costs, without touching the device — for a caller that
// models fetches the system performs but already holds the verified bytes
// of (the engine's promotions adopting the rows its pulls staged).
//
// oevet:charge read
func (a *Arena) ChargeRecordReads(count int64) { a.dev.timed.ChargeReadN(a.payloadBytes, count) }

// ReadRec names one record of a scattered verified read: the slot the index
// says holds the record, and the key it must carry.
type ReadRec struct {
	Slot uint32
	Key  uint64
}

// overlapBlock is how many records the batched read and write paths touch
// ahead of the per-record work: the cache lines of one block's records are
// loaded in a tight loop first, so their misses are in flight together
// instead of one record's at a time (DESIGN.md §18).
const overlapBlock = 16

// touchSink receives what the touch passes load, so the loads are not dead
// code. Go has no prefetch intrinsic: independent loads in a tight loop are
// what put a block's misses in flight. Stored once per call.
var touchSink atomic.Uint32

// touchLines loads one byte from each cache line b overlaps.
//
// oevet:hotpath
func touchLines(b []byte) (sum byte) {
	for i := 0; i < len(b); i += 64 {
		sum += b[i]
	}
	if len(b) > 0 {
		sum += b[len(b)-1]
	}
	return sum
}

// ReadScatteredVerified is the batched form of ReadPayloadVerified — the
// read twin of WriteBatch: it serves recs, which may sit anywhere in the
// arena, in order, under one acquisition of the device's crash lock and with
// one read charge. serve(i, payload) receives each verified payload as a
// view into the device image, valid only for the duration of the call (the
// callback runs under the device's crash lock and must not re-enter the
// device). It returns how many records were served: on error that is the
// index of the record that failed, and the records after it were not read.
//
// Records are taken a block at a time: a first pass bounds-checks and
// poison-checks each record of the block and loads one byte from each of its
// cache lines — never outside what the record's own bounds check admitted —
// and a second pass decodes, CRC-verifies, key-checks and serves them.
//
// Integrity semantics are ReadPayloadVerified's, per record: a rotted or
// structurally-wrong record fails with a typed *CorruptError naming its
// slot, and poisoned media fails typed before any of its bytes are served.
// So is the charge: exactly one payload-sized PMem read per record served
// plus the one that failed its checksum or key (its bytes were fetched), and
// none for a record out of bounds or poisoned — never a stream cost, so
// virtual time is independent of where the maintainers happened to put the
// records.
//
// oevet:charge read
func (a *Arena) ReadScatteredVerified(recs []ReadRec, serve func(i int, payload []byte)) (int, error) {
	d := a.dev
	n := a.recLen()
	served, charged := 0, 0
	var err error
	var sink byte
	d.crashMu.RLock()
	for lo := 0; lo < len(recs) && err == nil; lo += overlapBlock {
		blk := recs[lo:min(lo+overlapBlock, len(recs))]
		admitted := len(blk)
		for i := range blk {
			off := a.slotOffset(blk[i].Slot)
			if err = d.check(off, n); err == nil {
				err = d.poisonCheck(off, n)
			}
			if err != nil {
				admitted = i
				break
			}
			sink += touchLines(d.image[off : off+n])
		}
		for i := range blk[:admitted] {
			r := &blk[i]
			off := a.slotOffset(r.Slot)
			rec, derr := a.decode(r.Slot, d.image[off:off+n])
			if derr == nil && rec.Key != r.Key {
				derr = &CorruptError{Key: r.Key, Slot: r.Slot, Off: int64(off)}
			}
			if derr != nil {
				charged, err = 1, derr
				break
			}
			serve(lo+i, rec.Payload)
			served++
		}
	}
	d.crashMu.RUnlock()
	touchSink.Store(uint32(sink))
	d.timed.ChargeReadN(a.payloadBytes, int64(served+charged))
	return served, err
}

// CheckRecord validates the record in slot against key without copying the
// payload out — the scrubber's probe. It charges a full record read (the
// scrub budget is what keeps this off the hot path).
//
// oevet:charge read
func (a *Arena) CheckRecord(slot uint32, key uint64) error {
	off := a.slotOffset(slot)
	n := slotHeaderLen + a.payloadBytes
	if err := a.dev.check(off, n); err != nil {
		return err
	}
	if err := a.dev.poisonCheck(off, n); err != nil {
		return err
	}
	a.dev.crashMu.RLock()
	rec, err := a.decode(slot, a.dev.image[off:off+n])
	if err == nil && rec.Key != key {
		err = &CorruptError{Key: key, Slot: slot, Off: int64(off)}
	}
	a.dev.crashMu.RUnlock()
	a.dev.timed.ChargeRead(n)
	return err
}

// CorrectRecord attempts to heal a record that failed its CRC32C by
// correcting a single flipped bit in place — the exact signature of media
// bit-rot. CRC32C (Castagnoli) has minimum Hamming distance 4 for any
// message shorter than 2^31 bits, so no error pattern of weight <= 3 is a
// codeword: a lone flipped bit (in the hashed bytes or in the stored CRC
// word itself) produces a syndrome no other single-bit flip can produce,
// the original record is recovered bit-exactly, and damage of 2-3 bits can
// never masquerade as a different correctable single-bit error.
//
// The search is the standard syndrome walk: the CRC byte-update
// crc' = tab[byte(crc)^in] ^ (crc>>8) is GF(2)-linear, so the register
// DIFFERENCE caused by flipping bit b of a message byte is independent of
// the actual bytes — it starts as crcTable[1<<b] and advances one
// zero-input step per later message byte. Matching the observed syndrome
// (stored ^ computed) against those candidates locates the flip in
// O(8n) table lookups; a weight-1 syndrome means the flip landed in the
// stored CRC field itself (a data flip there would be a weight-2 codeword).
//
// The corrected bytes are re-persisted with a durable read-back proof
// (bounded retries) regardless of whether hot-path flush verification is
// enabled: an unverified corrective flush could itself rot and the heal
// would be a lie. On success the slot, its version, and its checkpoint
// coverage are exactly what they were before the corruption. Poisoned
// media, multi-bit damage, and structural damage (valid CRC over a wrong
// key — only possible if corruption predates the checksum) return a typed
// error so the caller falls through to the lossy heals. Repair path only:
// never called while the record serves reads.
//
// oevet:pmem-integrity
func (a *Arena) CorrectRecord(slot uint32, key uint64) error {
	off := a.slotOffset(slot)
	n := slotHeaderLen + a.payloadBytes
	if err := a.dev.check(off, n); err != nil {
		return err
	}
	if err := a.dev.poisonCheck(off, n); err != nil {
		return err
	}
	buf := make([]byte, n)
	a.dev.crashMu.RLock()
	copy(buf, a.dev.image[off:off+n])
	a.dev.crashMu.RUnlock()
	a.dev.timed.ChargeRead(n)

	stored := binary.LittleEndian.Uint32(buf[20:])
	syndrome := stored ^ a.recordCRC(buf)
	switch {
	case syndrome == 0:
		// CRC already valid: the record is structurally wrong (bad key or
		// payload length), not bit-flipped — nothing this code can undo.
		return &CorruptError{Key: binary.LittleEndian.Uint64(buf[0:]), Slot: slot, Off: int64(off)}
	case bits.OnesCount32(syndrome) == 1:
		binary.LittleEndian.PutUint32(buf[20:], stored^syndrome)
	default:
		if !correctMessageBit(buf, syndrome) {
			return &CorruptError{Key: binary.LittleEndian.Uint64(buf[0:]), Slot: slot, Off: int64(off)}
		}
	}
	rec, err := a.decode(slot, buf)
	if err != nil {
		return err
	}
	if rec.Key != key {
		return &CorruptError{Key: rec.Key, Slot: slot, Off: int64(off)}
	}

	var lastErr error
	rb := make([]byte, n)
	for attempt := 0; attempt < 4; attempt++ {
		if err := a.dev.Persist(off, buf); err != nil {
			return err
		}
		if !a.dev.MediaFaultsArmed() {
			return nil
		}
		if err := a.dev.ReadDurable(off, rb); err != nil {
			lastErr = err // the corrective flush itself poisoned the line
			continue
		}
		if bytes.Equal(rb, buf) {
			return nil
		}
		lastErr = &CorruptError{Key: key, Slot: slot, Off: int64(off)}
	}
	return fmt.Errorf("pmem: corrected record of slot %d did not persist: %w", slot, lastErr)
}

// correctMessageBit locates the single message-bit flip whose CRC32C
// syndrome matches and undoes it, returning false when no single flip
// matches (multi-bit damage). The hashed message is buf[0:20] followed by
// buf[24:]; candidate deltas are maintained for flipping each bit of the
// byte currently under the cursor and advanced as the cursor moves from
// the last hashed byte toward the first.
func correctMessageBit(buf []byte, syndrome uint32) bool {
	var d [8]uint32
	for b := range d {
		d[b] = crcTable[1<<b]
	}
	msgLen := len(buf) - 4 // header minus the 4-byte CRC field, plus payload
	for k := 0; k < msgLen; k++ {
		for b, db := range d {
			if db != syndrome {
				continue
			}
			i := msgLen - 1 - k // message index of the flipped byte
			if i >= 20 {
				i += 4 // skip the CRC field buf[20:24], which is not hashed
			}
			buf[i] ^= 1 << b
			return true
		}
		for b := range d {
			d[b] = crcTable[byte(d[b])] ^ (d[b] >> 8)
		}
	}
	return false
}

// WriteRecordVerified is WriteRecord plus a durable read-back proof: after
// the flush, the durable image must decode to exactly (key, version) with a
// valid CRC. A rotted or silently-dropped flush is detected and re-flushed;
// a poisoned line is healed by the rewrite when possible. Bounded retries —
// if the media refuses to hold the record the last typed error is returned
// so the caller can quarantine the slot and allocate another.
//
// Each flush it issues charges one write (a retried record pays again, as
// the device does), so no exactly-once charge contract applies.
//
// oevet:pmem-flush
func (a *Arena) WriteRecordVerified(slot uint32, key uint64, version int64, payload []byte) error {
	return a.writeOne(slot, key, version, payload, true)
}

// FindLatest scans the arena for the newest valid record of key with
// version at most maxVersion — the scrubber's restore probe against the
// retained checkpoint. The returned payload is a copy. Corrupt and
// poisoned slots are skipped. Charges a sequential stream read of the
// whole arena (restore is a repair path, not a hot path).
func (a *Arena) FindLatest(key uint64, maxVersion int64) (Record, bool) {
	var out Record
	found := false
	_ = a.Scan(func(r Record) error {
		if r.Key != key || r.Version > maxVersion {
			return nil
		}
		if !found || r.Version > out.Version {
			out = Record{Slot: r.Slot, Key: r.Key, Version: r.Version, Payload: append([]byte(nil), r.Payload...)}
			found = true
		}
		return nil
	})
	return out, found
}

// AdoptRetired removes slot from the retired list so its record becomes
// live again — the scrubber adopting an older retained record after the
// newest one was lost to the media. Returns the record's own version and
// whether the slot was found retired.
func (a *Arena) AdoptRetired(slot uint32) (int64, bool) {
	a.mu.Lock()
	defer a.mu.Unlock()
	for _, list := range []*[]retiredSlot{&a.fresh, &a.held} {
		for i, r := range *list {
			if r.slot == slot {
				*list = slices.Delete(*list, i, i+1)
				return r.oldVersion, true
			}
		}
	}
	return 0, false
}

// Quarantine pulls slot out of circulation permanently: it is no longer
// occupied, never enters the free list, and recovery will not hand it out
// either. Used for slots whose media range is poisoned or refuses to hold
// data. If the slot held the only durable copy of live state the caller
// owes an epoch fence; quarantining a freshly allocated (empty) slot does
// not, and such call sites suppress in place.
//
// oevet:fence-need
func (a *Arena) Quarantine(slot uint32) {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.occupied.remove(slot)
	a.quarantined.add(slot)
}
