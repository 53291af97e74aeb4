package pmem

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"
	"slices"
	"sync"
)

// Arena is the space-management layer the paper delegates to PMDK: a
// slab of fixed-size embedding-entry records inside a Device, with
// crash-consistent record writes and checkpoint-aware reclamation.
//
// Records are versioned with the batch ID of the update they carry.
// A superseded record is not reused immediately; it is *retired* and only
// reclaimed once a checkpoint at least as new as its superseding version
// has completed (Sec. V-C: "the space manager will recycle the space of
// these entries once the new checkpoint is done"). That retention is what
// makes batch-consistent recovery possible without a separate snapshot.
type Arena struct {
	dev          *Device
	payloadBytes int
	slotSize     int
	slots        int

	// mu is the deepest lock in the engine hierarchy (DESIGN.md §7):
	// callers may hold shard locks and ckptMu when entering the arena,
	// never the reverse.
	//
	// oevet:lockrank pmem.arena.mu 30
	mu          sync.Mutex
	free        []uint32 // reusable slot indices
	bump        uint32   // next never-used slot
	occupied    slotSet  // live slots, retired-but-unreclaimed ones included
	quarantined slotSet  // slots pulled from circulation (poisoned media)

	// Superseded slots awaiting a covering checkpoint. Whether Reclaim
	// keeps a record depends on the sealed batch and the pinned checkpoints
	// it is called with; both only move forward, so a record needs looking
	// at once when it arrives and again only when the pins change. fresh
	// holds the arrivals since the last Reclaim (and the few superseded by a
	// batch not yet sealed), held the records some pin in heldPins covered.
	fresh    []retiredSlot
	held     []retiredSlot
	heldPins []int64
}

type retiredSlot struct {
	slot         uint32
	oldVersion   int64 // version of the record being retired
	supersededBy int64 // version of the record that replaced it
}

// NoSlot marks the absence of a slot (an entry with no persisted record, a
// write that supersedes nothing).
const NoSlot = ^uint32(0)

// slotSet is a set of slot indices as a bitmap sized to the arena, with its
// population count kept beside it.
type slotSet struct {
	bits []uint64
	n    int
}

func newSlotSet(slots int) slotSet { return slotSet{bits: make([]uint64, (slots+63)/64)} }

func (b *slotSet) has(s uint32) bool {
	w := int(s >> 6)
	return w < len(b.bits) && b.bits[w]&(1<<(s&63)) != 0
}

func (b *slotSet) add(s uint32) {
	if !b.has(s) {
		b.bits[s>>6] |= 1 << (s & 63)
		b.n++
	}
}

func (b *slotSet) remove(s uint32) {
	if b.has(s) {
		b.bits[s>>6] &^= 1 << (s & 63)
		b.n--
	}
}

const (
	arenaMagic     = uint64(0x4f45415245004132) // "OEAREA.A2" (A2: CRC-packed checkpoint words)
	arenaHeaderLen = 64
	slotHeaderLen  = 24 // key(8) + version(8) + payloadLen(4) + crc(4)

	offMagic   = 0
	offPayload = 8
	offSlots   = 12
	offCkptID  = 16
	// offPrevCkptID holds the checkpoint completed immediately before
	// offCkptID, or -1. Engines configured to retain two checkpoints keep
	// both recoverable, which is what lets a node roll back one committed
	// batch during coordinated cluster replay (DESIGN.md §10).
	offPrevCkptID = 24
)

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// ArenaLayout computes the device capacity needed for an arena with the
// given record payload size (bytes) and slot count.
func ArenaLayout(payloadBytes, slots int) int {
	slotSize := alignUp(slotHeaderLen+payloadBytes, 8)
	return arenaHeaderLen + slotSize*slots
}

func alignUp(n, a int) int { return (n + a - 1) / a * a }

// NewArena formats an arena on dev with fixed-size payloads. Any previous
// contents of the device are ignored. The initial checkpointed batch ID
// is -1 (nothing checkpointed).
func NewArena(dev *Device, payloadBytes, slots int) (*Arena, error) {
	if need := ArenaLayout(payloadBytes, slots); need > dev.Capacity() {
		return nil, fmt.Errorf("pmem: device too small: need %d have %d", need, dev.Capacity())
	}
	a := &Arena{
		dev:          dev,
		payloadBytes: payloadBytes,
		slotSize:     alignUp(slotHeaderLen+payloadBytes, 8),
		slots:        slots,
		occupied:     newSlotSet(slots),
		quarantined:  newSlotSet(slots),
	}
	hdr := make([]byte, arenaHeaderLen)
	binary.LittleEndian.PutUint64(hdr[offMagic:], arenaMagic)
	binary.LittleEndian.PutUint32(hdr[offPayload:], uint32(payloadBytes))
	binary.LittleEndian.PutUint32(hdr[offSlots:], uint32(slots))
	binary.LittleEndian.PutUint64(hdr[offCkptID:], packCkptWord(-1))
	binary.LittleEndian.PutUint64(hdr[offPrevCkptID:], packCkptWord(-1))
	if err := dev.Persist(0, hdr); err != nil {
		return nil, err
	}
	return a, nil
}

// OpenArena attaches to an arena previously formatted on dev (after a crash
// or a process restart). The slot occupancy map is NOT rebuilt here; that is
// the recovery scan's job (see Scan and internal/recovery).
func OpenArena(dev *Device) (*Arena, error) {
	hdr := make([]byte, arenaHeaderLen)
	if err := dev.Read(0, hdr); err != nil {
		return nil, err
	}
	if binary.LittleEndian.Uint64(hdr[offMagic:]) != arenaMagic {
		return nil, fmt.Errorf("%w: arena magic mismatch", ErrBadImage)
	}
	payload := int(binary.LittleEndian.Uint32(hdr[offPayload:]))
	slots := int(binary.LittleEndian.Uint32(hdr[offSlots:]))
	if ArenaLayout(payload, slots) > dev.Capacity() {
		return nil, fmt.Errorf("%w: arena larger than device", ErrBadImage)
	}
	return &Arena{
		dev:          dev,
		payloadBytes: payload,
		slotSize:     alignUp(slotHeaderLen+payload, 8),
		slots:        slots,
		occupied:     newSlotSet(slots),
		quarantined:  newSlotSet(slots),
	}, nil
}

// PayloadBytes returns the fixed record payload size.
func (a *Arena) PayloadBytes() int { return a.payloadBytes }

// Slots returns the arena capacity in records.
func (a *Arena) Slots() int { return a.slots }

// Device returns the underlying device.
func (a *Arena) Device() *Device { return a.dev }

func (a *Arena) slotOffset(slot uint32) int {
	return arenaHeaderLen + int(slot)*a.slotSize
}

// Alloc reserves a slot. It returns ErrFull when no slot is available;
// retired-but-unreclaimed slots do not count as available (they are still
// needed by a pending checkpoint).
func (a *Arena) Alloc() (uint32, error) {
	a.mu.Lock()
	defer a.mu.Unlock()
	slot, ok := a.allocLocked()
	if !ok {
		return 0, ErrFull
	}
	return slot, nil
}

func (a *Arena) allocLocked() (uint32, bool) {
	var slot uint32
	switch {
	case len(a.free) > 0:
		slot = a.free[len(a.free)-1]
		a.free = a.free[:len(a.free)-1]
	case int(a.bump) < a.slots:
		slot = a.bump
		a.bump++
	default:
		return 0, false
	}
	a.occupied.add(slot)
	return slot, true
}

// AllocN reserves a destination slot for as many of recs as the arena can
// hold, in order, under one lock acquisition, and returns how many it
// reserved (a prefix of recs; fewer than len(recs) means the arena is full
// until something is reclaimed).
func (a *Arena) AllocN(recs []WriteRec) int {
	a.mu.Lock()
	defer a.mu.Unlock()
	for i := range recs {
		slot, ok := a.allocLocked()
		if !ok {
			return i
		}
		recs[i].Slot = slot
	}
	return len(recs)
}

// Free returns a slot to the free list immediately. Use Retire instead when
// the slot's record may still be needed by a pending checkpoint.
func (a *Arena) Free(slot uint32) {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.freeLocked(slot)
}

func (a *Arena) freeLocked(slot uint32) {
	if !a.occupied.has(slot) {
		panic(fmt.Sprintf("pmem: double free of slot %d", slot))
	}
	a.occupied.remove(slot)
	a.free = append(a.free, slot)
}

// Retire marks the record in slot — whose own version is oldVersion — as
// superseded by a record of version supersededBy. The slot is reclaimed by
// a later Reclaim call once no checkpoint can need a version in
// [oldVersion, supersededBy).
func (a *Arena) Retire(slot uint32, oldVersion, supersededBy int64) {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.retireLocked(slot, oldVersion, supersededBy)
}

func (a *Arena) retireLocked(slot uint32, oldVersion, supersededBy int64) {
	if !a.occupied.has(slot) {
		panic(fmt.Sprintf("pmem: retire of unoccupied slot %d", slot))
	}
	a.fresh = append(a.fresh, retiredSlot{slot: slot, oldVersion: oldVersion, supersededBy: supersededBy})
}

// RetireBatch retires the record each of recs superseded (rec.Old, of
// version rec.OldVersion, superseded by rec.Version) under one lock
// acquisition. Call it only after WriteBatch made the replacements durable:
// a retired slot can be reclaimed and overwritten at any time after.
func (a *Arena) RetireBatch(recs []WriteRec) {
	a.mu.Lock()
	defer a.mu.Unlock()
	for i := range recs {
		if r := &recs[i]; r.Old != NoSlot {
			a.retireLocked(r.Old, r.OldVersion, r.Version)
		}
	}
}

// pinned reports whether some checkpoint in pins needs a retired record:
// the record is the newest copy at or below the checkpoint exactly when the
// checkpoint falls in [oldVersion, supersededBy).
func (r retiredSlot) pinned(pins []int64) bool {
	for _, p := range pins {
		if p >= r.oldVersion && p < r.supersededBy {
			return true
		}
	}
	return false
}

// Reclaim frees every retired slot no recoverable checkpoint can need and
// returns how many it freed. A record is kept while the version that
// superseded it is newer than sealed (a checkpoint request for a batch not
// yet sealed may still land in its range), or while one of the pinned
// checkpoints falls in [oldVersion, supersededBy). sealed and the pins only
// move forward over an arena's life, so Reclaim looks at each record when it
// arrives and afterwards only when the pins differ from the previous call's
// — not at every retired record on every call.
func (a *Arena) Reclaim(sealed int64, pins []int64) int {
	a.mu.Lock()
	defer a.mu.Unlock()
	n := 0
	if !slices.Equal(pins, a.heldPins) {
		kept := a.held[:0]
		for _, r := range a.held {
			if r.pinned(pins) {
				kept = append(kept, r)
			} else {
				a.freeLocked(r.slot)
				n++
			}
		}
		a.held = kept
		a.heldPins = append(a.heldPins[:0], pins...)
	}
	kept := a.fresh[:0]
	for _, r := range a.fresh {
		switch {
		case r.supersededBy > sealed:
			kept = append(kept, r)
		case r.pinned(pins):
			a.held = append(a.held, r)
		default:
			a.freeLocked(r.slot)
			n++
		}
	}
	a.fresh = kept
	return n
}

// ReclaimUpTo frees every retired slot whose superseding version is at most
// ckpt: once a checkpoint at ckpt completes, any record superseded by a
// version the checkpoint already covers can never be read again.
func (a *Arena) ReclaimUpTo(ckpt int64) int { return a.Reclaim(ckpt, nil) }

// RetiredCount reports how many slots await reclamation.
func (a *Arena) RetiredCount() int {
	a.mu.Lock()
	defer a.mu.Unlock()
	return len(a.fresh) + len(a.held)
}

// LiveSlots reports how many slots are currently allocated (including
// retired ones not yet reclaimed).
func (a *Arena) LiveSlots() int {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.occupied.n
}

// MarkOccupied registers a slot as live during recovery (when the free list
// is rebuilt from a scan instead of allocation history).
func (a *Arena) MarkOccupied(slot uint32) {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.occupied.add(slot)
	if slot >= a.bump {
		a.bump = slot + 1
	}
}

// FinishRecovery rebuilds the free list: every slot below the bump pointer
// that was not marked occupied becomes free. Quarantined slots and slots
// sitting on poisoned media stay out of circulation (poison is a media
// property, so it survives crashes and is rediscovered here).
func (a *Arena) FinishRecovery() {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.free = a.free[:0]
	for s := uint32(0); s < a.bump; s++ {
		if a.occupied.has(s) || a.quarantined.has(s) {
			continue
		}
		if a.dev.poisonCheck(a.slotOffset(s), a.slotSize) != nil {
			a.quarantined.add(s)
			continue
		}
		a.free = append(a.free, s)
	}
}

// WriteRec is one record of a group commit: AllocN fills Slot, WriteBatch
// encodes Row into the device image at Slot and persists it, RetireBatch
// retires the record it superseded.
type WriteRec struct {
	Slot    uint32    // destination slot
	Key     uint64    // record key
	Version int64     // record version (the data version it carries)
	Row     []float32 // payload: PayloadBytes/4 floats, read until WriteBatch returns

	Old        uint32 // slot of the record this one supersedes, or NoSlot
	OldVersion int64  // version of that record
}

// recLen is the number of bytes of a slot a record occupies.
func (a *Arena) recLen() int { return slotHeaderLen + a.payloadBytes }

// WriteRecord persists a record (key, version, payload) into slot with a
// single flush. The record is crash-consistent: recovery accepts it only if
// its checksum validates, so a torn write is discarded rather than observed.
//
// oevet:pmem-flush
// oevet:charge write
func (a *Arena) WriteRecord(slot uint32, key uint64, version int64, payload []byte) error {
	return a.writeOne(slot, key, version, payload, false)
}

// WriteBatch persists recs in order as one group commit — many write-backs
// under one fence, the way PMem code issues a run of CLWBs and one SFENCE:
// each row is encoded straight into the device image at its slot with its
// CRC computed in place, the whole batch runs under one acquisition of the
// device's crash lock, and the traffic counters and the write charge are
// settled once (one op per flush issued, exactly what per-record writes
// charge). Records are taken a block at a time: the block's rows and the
// image and durable lines of their slots are touched first (touchBlock), so
// persistRecord then runs over lines already on their way. The media-fault
// model is still consulted once per flush, in record order, so a seeded
// fault schedule lands on the same records as it does with per-record
// writes. With verify set every record must read back valid from the durable
// image before the next one is written (WriteRecordVerified's contract,
// retries included).
//
// It returns how many records are durable. On error that is the index of
// the record that failed; the records after it were not written.
//
// oevet:pmem-flush
// oevet:charge write
func (a *Arena) WriteBatch(recs []WriteRec, verify bool) (int, error) {
	d := a.dev
	var flushes int64
	var err error
	var sink byte
	done := 0
	d.crashMu.RLock()
	for lo := 0; lo < len(recs) && err == nil; lo += overlapBlock {
		blk := recs[lo:min(lo+overlapBlock, len(recs))]
		sink += a.touchBlock(blk)
		for i := range blk {
			r := &blk[i]
			n, werr := a.persistRecord(r.Slot, r.Key, r.Version, nil, r.Row, verify)
			flushes += n
			if werr != nil {
				err = werr
				break
			}
			done++
		}
	}
	d.crashMu.RUnlock()
	touchSink.Store(uint32(sink))
	a.noteRecordFlushes(flushes)
	return done, err
}

// touchBlock loads one value from each cache line a block of a group commit
// is about to read or write: every record's row, and the image bytes of its
// slot. A slot out of range, or any slot of a closed device, is skipped —
// persistRecord rejects it when its turn comes — so nothing is loaded that
// the record's own bounds check would not admit.
//
// oevet:hotpath
func (a *Arena) touchBlock(blk []WriteRec) (sum byte) {
	d := a.dev
	n := a.recLen()
	for i := range blk {
		r := &blk[i]
		for j := 0; j < len(r.Row); j += 16 {
			sum += byte(math.Float32bits(r.Row[j]))
		}
		off := a.slotOffset(r.Slot)
		if int(r.Slot) >= a.slots || off+n > len(d.image) {
			continue
		}
		sum += touchLines(d.image[off : off+n])
	}
	return sum
}

// writeOne is a group commit of one record whose payload is already
// encoded.
//
// oevet:pmem-flush
// oevet:charge write
func (a *Arena) writeOne(slot uint32, key uint64, version int64, payload []byte, verify bool) error {
	d := a.dev
	d.crashMu.RLock()
	flushes, err := a.persistRecord(slot, key, version, payload, nil, verify)
	d.crashMu.RUnlock()
	a.noteRecordFlushes(flushes)
	return err
}

// noteRecordFlushes accounts the record flushes persistRecord issued: each
// stored and wrote back one record's bytes and charges one device write.
//
// oevet:charge write
func (a *Arena) noteRecordFlushes(flushes int64) {
	a.dev.bytesWritten.Add(int64(a.recLen()) * flushes)
	a.dev.noteFlushes(a.recLen(), flushes)
}

// persistRecord is the one record write path: it encodes the record — its
// payload given either as bytes or as the float row to encode — into the
// volatile image at slot, stamps the CRC over the bytes in place, and
// writes the record back. Store and write-back run under the caller's one
// hold of the crash lock, so with the media model unarmed the write-back
// always settles the range and nothing is saved; an armed model saves the
// durable bytes before every attempt, so a dropped retry leaves the previous
// bytes durable. With verify set the durable image must then
// decode to exactly (key, version) with a valid CRC: a rotted or silently
// dropped flush is detected and the record re-encoded and re-flushed, a
// poisoned line is healed by the rewrite when possible, and after three
// attempts the last typed error is returned so the caller can quarantine
// the slot and take another. It returns the number of flushes issued, which
// the caller accounts once the crash lock — held shared by the caller — is
// released.
//
// oevet:pmem-flush
// oevet:pmem-integrity
func (a *Arena) persistRecord(slot uint32, key uint64, version int64, payload []byte, row []float32, verify bool) (int64, error) {
	n := a.recLen()
	have := len(payload)
	if payload == nil {
		have = FloatBytes(len(row))
	}
	if have != a.payloadBytes {
		return 0, fmt.Errorf("pmem: payload size %d != record payload %d", have, a.payloadBytes)
	}
	if int(slot) >= a.slots {
		return 0, fmt.Errorf("%w: slot %d of %d", ErrOutOfRange, slot, a.slots)
	}
	d := a.dev
	off := a.slotOffset(slot)
	if err := d.check(off, n); err != nil {
		return 0, err
	}
	img := d.image[off : off+n : off+n]
	armed := d.media != nil
	var flushes int64
	var lastErr error
	for attempt := 0; attempt < 3; attempt++ {
		if armed {
			d.saveLocked(off, n)
		}
		binary.LittleEndian.PutUint64(img[0:], key)
		binary.LittleEndian.PutUint64(img[8:], uint64(version))
		binary.LittleEndian.PutUint32(img[16:], uint32(a.payloadBytes))
		if payload != nil {
			copy(img[slotHeaderLen:], payload)
		} else {
			EncodeFloats(img[slotHeaderLen:], row)
		}
		binary.LittleEndian.PutUint32(img[20:], a.recordCRC(img))
		d.flushLocked(off, n)
		flushes++
		if !verify {
			return flushes, nil
		}
		if err := d.poisonCheck(off, n); err != nil {
			lastErr = err
			continue
		}
		durable := img
		if d.savedLocked(off, n) {
			durable = slices.Clone(img)
			d.overlayLocked(off, durable)
		}
		rec, err := a.decode(slot, durable)
		if err != nil {
			lastErr = err
			continue
		}
		if rec.Key != key || rec.Version != version {
			lastErr = &CorruptError{Key: key, Slot: slot, Off: int64(off)}
			continue
		}
		return flushes, nil
	}
	return flushes, fmt.Errorf("pmem: verified write of slot %d: %w", slot, lastErr)
}

// recordCRC covers key, version, payloadLen and payload (the crc field
// itself is skipped). crc32.Update chains the two spans without the
// hash.Hash32 allocation, which keeps the verified read path alloc-free.
//
// oevet:pmem-checksum
func (a *Arena) recordCRC(buf []byte) uint32 {
	return crc32.Update(crc32.Update(0, crcTable, buf[0:20]), crcTable, buf[slotHeaderLen:])
}

// Record is a decoded arena record.
type Record struct {
	Slot    uint32
	Key     uint64
	Version int64
	Payload []byte // view into the device image; copy before retaining
}

// ReadRecord decodes the record in slot. It returns ErrCorrupt if the
// checksum does not validate (torn or never-written slot).
//
// oevet:charge read
func (a *Arena) ReadRecord(slot uint32) (Record, error) {
	off := a.slotOffset(slot)
	buf, err := a.dev.View(off, slotHeaderLen+a.payloadBytes)
	if err != nil {
		return Record{}, err
	}
	return a.decode(slot, buf)
}

// ReadPayload copies the payload of the record in slot into dst (which must
// be at least PayloadBytes long) without checksum validation; the caller is
// on the hot pull path and the record is known-live.
//
// oevet:charge read
func (a *Arena) ReadPayload(slot uint32, dst []byte) error {
	off := a.slotOffset(slot) + slotHeaderLen
	return a.dev.Read(off, dst[:a.payloadBytes])
}

// Version returns the version field of the record in slot without decoding
// the payload.
//
// oevet:charge read
func (a *Arena) Version(slot uint32) (int64, error) {
	buf, err := a.dev.View(a.slotOffset(slot)+8, 8)
	if err != nil {
		return 0, err
	}
	return int64(binary.LittleEndian.Uint64(buf)), nil
}

func (a *Arena) decode(slot uint32, buf []byte) (Record, error) {
	plen := binary.LittleEndian.Uint32(buf[16:])
	if int(plen) != a.payloadBytes {
		return Record{}, &CorruptError{Key: binary.LittleEndian.Uint64(buf[0:]), Slot: slot, Off: int64(a.slotOffset(slot))}
	}
	stored := binary.LittleEndian.Uint32(buf[20:])
	if stored != a.recordCRC(buf) {
		return Record{}, &CorruptError{Key: binary.LittleEndian.Uint64(buf[0:]), Slot: slot, Off: int64(a.slotOffset(slot))}
	}
	return Record{
		Slot:    slot,
		Key:     binary.LittleEndian.Uint64(buf[0:]),
		Version: int64(binary.LittleEndian.Uint64(buf[8:])),
		Payload: buf[slotHeaderLen:],
	}, nil
}

// Scan iterates over every slot, calling fn for each record whose checksum
// validates. Slots that were never written, torn by a crash, or zeroed are
// skipped silently — exactly the recovery-scan semantics of Sec. V-C.
// Scan charges a sequential stream read of the whole arena.
//
// oevet:charge stream-read
func (a *Arena) Scan(fn func(Record) error) error {
	return a.ScanRange(0, uint32(a.slots), fn)
}

// ScanRange scans slots [lo, hi) only, charging a sequential stream read of
// that range. Disjoint ranges may be scanned concurrently — the partitioned
// recovery the paper proposes in Sec. VI-E ("both scanning and the
// rebuilding can be executed [in] parallel on each part of the embedding
// tables").
//
// oevet:charge stream-read
func (a *Arena) ScanRange(lo, hi uint32, fn func(Record) error) error {
	if int(hi) > a.slots || lo > hi {
		return fmt.Errorf("%w: scan range [%d,%d) of %d slots", ErrOutOfRange, lo, hi, a.slots)
	}
	if err := a.dev.check(a.slotOffset(lo), int(hi-lo)*a.slotSize); err != nil {
		return err
	}
	a.dev.Timed().ChargeStreamRead(int64(hi-lo) * int64(a.slotSize))
	for s := lo; s < hi; s++ {
		off := a.slotOffset(s)
		if a.dev.poisonCheck(off, slotHeaderLen+a.payloadBytes) != nil {
			continue // uncorrectable media: the record is gone, not garbage
		}
		// Raw view without per-slot charge: the stream charge above covers it.
		buf := a.dev.image[off : off+slotHeaderLen+a.payloadBytes]
		rec, err := a.decode(s, buf)
		if err != nil {
			continue // invalid slot: free space, torn write, or bit-rot
		}
		if err := fn(rec); err != nil {
			return err
		}
	}
	return nil
}

// EraseMatching durably erases every record whose key satisfies match,
// wherever it lives — live slots, retired slots awaiting reclamation, and
// records left behind in already-freed slots. Each matching slot's header
// is zeroed and flushed, so the record fails its checksum on every future
// scan and recovery can never resurrect it: this is what makes a migrated
// key range *leave* its source node, rather than reappear on the next
// rollback. Bookkeeping follows: erased live and retired slots return to
// the free list. Quarantined slots and poisoned media are skipped (those
// records are already unreadable). Returns the number of records erased.
//
// Charges: one stream read for the scan, plus per-erased-slot write (and,
// under armed media faults, verify-read) charges from eraseSlotLocked — a
// mixed profile, so no exactly-once charge contract applies.
//
// oevet:pmem-flush
// oevet:pmem-integrity
func (a *Arena) EraseMatching(match func(key uint64) bool) (int, error) {
	a.mu.Lock()
	defer a.mu.Unlock()
	if err := a.dev.check(0, a.slotOffset(a.bump)); err != nil {
		return 0, err
	}
	// One sequential pass over the written prefix, like a recovery scan.
	a.dev.Timed().ChargeStreamRead(int64(a.bump) * int64(a.slotSize))
	zero := make([]byte, slotHeaderLen)
	erased := 0
	var wiped map[uint32]bool
	for s := uint32(0); s < a.bump; s++ {
		if a.quarantined.has(s) {
			continue
		}
		off := a.slotOffset(s)
		if a.dev.poisonCheck(off, slotHeaderLen+a.payloadBytes) != nil {
			continue
		}
		// Raw view without per-slot charge: the stream charge above covers it.
		buf := a.dev.image[off : off+slotHeaderLen+a.payloadBytes]
		rec, err := a.decode(s, buf)
		if err != nil {
			continue // free space, torn write, or bit-rot: nothing to erase
		}
		if !match(rec.Key) {
			continue
		}
		if err := a.eraseSlotLocked(off, zero); err != nil {
			return erased, err
		}
		erased++
		if wiped == nil {
			wiped = make(map[uint32]bool)
		}
		wiped[s] = true
		if a.occupied.has(s) {
			a.freeLocked(s)
		}
	}
	if len(wiped) > 0 {
		drop := func(r retiredSlot) bool { return wiped[r.slot] }
		a.fresh = slices.DeleteFunc(a.fresh, drop)
		a.held = slices.DeleteFunc(a.held, drop)
	}
	return erased, nil
}

// eraseSlotLocked zeroes one slot header durably. Under an armed
// media-fault model the erase is verified against the durable image and
// retried, like setCkptWord: a dropped flush must not leave an erased
// record resurrectable.
func (a *Arena) eraseSlotLocked(off int, zero []byte) error {
	if !a.dev.MediaFaultsArmed() {
		return a.dev.Persist(off, zero)
	}
	rb := make([]byte, slotHeaderLen)
	var lastErr error
	for attempt := 0; attempt < 4; attempt++ {
		if err := a.dev.Persist(off, zero); err != nil {
			return err
		}
		if err := a.dev.ReadDurable(off, rb); err != nil {
			lastErr = err // poisoned header line: the retry's flush rewrites it
			continue
		}
		ok := true
		for _, b := range rb {
			if b != 0 {
				ok = false
				break
			}
		}
		if ok {
			return nil
		}
		lastErr = fmt.Errorf("%w: slot header at %d did not erase", ErrCorrupt, off)
	}
	return fmt.Errorf("pmem: erase publish: %w", lastErr)
}

// maxCkptID is the largest checkpoint ID the packed header word can hold:
// the low half stores id+1 in 32 bits, so the representable range is
// [-1, 2^32-2]. setCkptWord rejects IDs outside it — a wrapped ID would
// carry a VALID CRC over the wrong value, the one corruption the
// self-validating word cannot detect after the fact.
const maxCkptID = int64(1)<<32 - 2

// packCkptWord encodes a checkpoint ID as a self-validating 8-byte word:
// the low half is id+1 (so -1, "nothing checkpointed", packs to 0) and the
// high half is the CRC32C of that low half. The word is still published
// with a single aligned 8-byte store, so power-fail atomicity is preserved
// while media corruption of the header becomes detectable. Callers must
// range-check id against [-1, maxCkptID] first (setCkptWord does).
//
// oevet:pmem-checksum
func packCkptWord(id int64) uint64 {
	var le [4]byte
	idp := uint32(id + 1)
	binary.LittleEndian.PutUint32(le[:], idp)
	return uint64(idp) | uint64(crc32.Checksum(le[:], crcTable))<<32
}

// unpackCkptWord validates and decodes a packed checkpoint word.
func unpackCkptWord(word uint64, what string) (int64, error) {
	var le [4]byte
	idp := uint32(word)
	binary.LittleEndian.PutUint32(le[:], idp)
	if uint32(word>>32) != crc32.Checksum(le[:], crcTable) {
		return 0, fmt.Errorf("%w: %s checkpoint header word %#x fails validation", ErrCorrupt, what, word)
	}
	return int64(idp) - 1, nil
}

// setCkptWord stamps and publishes one checkpoint header word. When a
// media-fault model is armed the publish is verified against the durable
// image and retried, so a rotted or dropped header flush cannot silently
// orphan both retained checkpoints.
//
// oevet:pmem-integrity
func (a *Arena) setCkptWord(off int, id int64) error {
	if id < -1 || id > maxCkptID {
		return fmt.Errorf("%w: checkpoint id %d outside packed-word range [-1, %d]", ErrOutOfRange, id, maxCkptID)
	}
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], packCkptWord(id))
	if !a.dev.MediaFaultsArmed() {
		return a.dev.Persist(off, buf[:])
	}
	var lastErr error
	var rb [8]byte
	for attempt := 0; attempt < 4; attempt++ {
		if err := a.dev.Persist(off, buf[:]); err != nil {
			return err
		}
		if err := a.dev.ReadDurable(off, rb[:]); err != nil {
			lastErr = err // poisoned header line: the retry's flush rewrites it
			continue
		}
		if rb == buf {
			return nil
		}
		lastErr = fmt.Errorf("%w: checkpoint header word at %d did not persist", ErrCorrupt, off)
	}
	return fmt.Errorf("pmem: checkpoint header publish: %w", lastErr)
}

// SetCheckpointedBatch atomically persists the ID of the latest completed
// checkpoint (Alg. 2 line 25, "PMem.atomicUpdateCheckpointId"). An aligned
// 8-byte store is power-fail atomic on real PMem; the simulation preserves
// that by persisting the full word in one flush.
//
// oevet:pmem-publish
func (a *Arena) SetCheckpointedBatch(id int64) error {
	return a.setCkptWord(offCkptID, id)
}

// CheckpointedBatch returns the persisted completed-checkpoint ID, or -1 if
// no checkpoint has ever completed. A header word that fails its CRC (or
// sits on poisoned media) returns a typed error so recovery can fall back
// to the retained previous checkpoint instead of trusting garbage.
func (a *Arena) CheckpointedBatch() (int64, error) {
	buf, err := a.dev.View(offCkptID, 8)
	if err != nil {
		return 0, err
	}
	return unpackCkptWord(binary.LittleEndian.Uint64(buf), "current")
}

// SetPrevCheckpointedBatch atomically persists the ID of the checkpoint
// retained *behind* the latest one (-1 for none). Engines that keep two
// recoverable checkpoints persist this BEFORE advancing the current ID, so
// a crash between the two stores leaves (prev==cur), which recovery treats
// as "only one checkpoint retained" — safe in both orders.
//
// oevet:pmem-publish
func (a *Arena) SetPrevCheckpointedBatch(id int64) error {
	return a.setCkptWord(offPrevCkptID, id)
}

// PrevCheckpointedBatch returns the persisted previous-checkpoint ID, or -1
// if at most one checkpoint is retained. Corrupt header words fail typed,
// like CheckpointedBatch.
func (a *Arena) PrevCheckpointedBatch() (int64, error) {
	buf, err := a.dev.View(offPrevCkptID, 8)
	if err != nil {
		return 0, err
	}
	return unpackCkptWord(binary.LittleEndian.Uint64(buf), "previous")
}
