// Package pmem simulates a byte-addressable persistent-memory device (Intel
// Optane PMem in the paper) plus the space-management layer the paper gets
// from PMDK's libpmemobj.
//
// The simulation is functional, not just a timing stub:
//
//   - Stores land in a volatile DIMM image, exactly as CPU stores land in
//     the cache hierarchy on real hardware.
//   - Data becomes durable only when explicitly flushed (the CLWB+SFENCE
//     analog). A simulated power failure (Crash) discards everything that
//     was written but not flushed.
//   - The device holds one image. A store first saves the durable value of
//     each byte it overwrites in an undo record, and a flush drops those
//     saved bytes again, so the durable image is the image with the undo
//     record laid over it.
//   - On linux the image is an anonymous mapping beside the Go heap, as a
//     DIMM sits beside DRAM: the device's memory is the pages written plus
//     the bytes not yet flushed, not its capacity, and the collector does
//     not count it. Its owner releases it with Close.
//   - The durable image can be saved to / reopened from an ordinary file so
//     recovery works across real process restarts (examples/fault_tolerance).
//
// Every access charges calibrated virtual time (device.PMem, Table I of the
// paper) to a simclock.Meter, which is how the performance experiments see
// the DRAM/PMem speed gap without physical hardware.
package pmem

import (
	"errors"
	"fmt"
	"io"
	"math/bits"
	"os"
	"sync"
	"sync/atomic"

	"openembedding/internal/device"
)

// Common errors returned by the pmem package.
var (
	// ErrOutOfRange indicates an access beyond the device capacity.
	ErrOutOfRange = errors.New("pmem: access out of range")
	// ErrFull indicates the arena has no free slots left.
	ErrFull = errors.New("pmem: arena full")
	// ErrCorrupt indicates a record failed its checksum during recovery.
	ErrCorrupt = errors.New("pmem: corrupt record")
	// ErrBadImage indicates a device image file that fails validation.
	ErrBadImage = errors.New("pmem: bad device image")
	// ErrClosed indicates an access to a device after Close.
	ErrClosed = errors.New("pmem: device closed")
)

// Device is a simulated PMem DIMM: a volatile image whose unflushed bytes
// keep their durable values in an undo record.
//
// Concurrent Read/Write/Flush calls on disjoint ranges are safe; callers
// coordinate access to shared ranges (the Arena does so per slot). Crash,
// Save and Close require quiescence, as on real hardware.
type Device struct {
	image []byte     // what loads/stores observe (CPU-cache analog); nil once closed
	undo  undoRecord // durable values of the bytes stored but not flushed
	timed *device.Timed

	bytesWritten atomic.Int64 // raw store traffic
	bytesFlushed atomic.Int64 // persisted traffic (write amplification basis)
	flushOps     atomic.Int64

	crashMu sync.RWMutex // held exclusively during Crash/Save/restore

	// media is the optional seeded media-fault model (bit-rot, dropped
	// flushes, poisoned ranges); nil on the fault-free path. Set by
	// SetMediaFaults while the device is quiescent.
	media *mediaState
}

// NewDevice creates a zeroed device of the given capacity in bytes. The
// meter may be nil, in which case accesses are functionally identical but
// free. The caller owns the device and releases its image with Close.
func NewDevice(capacity int, timed *device.Timed) *Device {
	if capacity <= 0 {
		panic("pmem: non-positive capacity")
	}
	image, err := mapImage(capacity)
	if err != nil {
		panic(err)
	}
	return &Device{image: image, timed: timed}
}

// Close releases the image. Every access afterwards fails with ErrClosed,
// and Crash does nothing. No slice the device handed out (View, a Record's
// Payload) may be used after Close: on linux the image is unmapped, so a
// load through one faults. That is why the owner closes the device and no
// finalizer does: the collector cannot see those slices. Closing a closed
// device returns nil.
func (d *Device) Close() error {
	d.crashMu.Lock()
	defer d.crashMu.Unlock()
	if d.image == nil {
		return nil
	}
	image := d.image
	d.image = nil
	clear(d.undo.lines)
	d.undo.n.Store(0)
	return unmapImage(image)
}

// Capacity returns the device size in bytes (0 once closed).
func (d *Device) Capacity() int { return len(d.image) }

// Timed returns the timing wrapper the device charges to (may be nil).
func (d *Device) Timed() *device.Timed { return d.timed }

// check admits [off, off+n). A closed device has an empty image, so only
// the error branch tells ErrClosed apart.
func (d *Device) check(off, n int) error {
	if off < 0 || n < 0 || off+n > len(d.image) {
		if d.image == nil {
			return ErrClosed
		}
		return fmt.Errorf("%w: off=%d n=%d cap=%d", ErrOutOfRange, off, n, len(d.image))
	}
	return nil
}

// Read copies n=len(buf) bytes at off into buf and charges one read access.
// Reads overlapping a poisoned media range fail with a typed PoisonError.
//
// oevet:charge read
func (d *Device) Read(off int, buf []byte) error {
	if err := d.check(off, len(buf)); err != nil {
		return err
	}
	if err := d.poisonCheck(off, len(buf)); err != nil {
		return err
	}
	d.crashMu.RLock()
	copy(buf, d.image[off:off+len(buf)])
	d.crashMu.RUnlock()
	d.timed.ChargeRead(len(buf))
	return nil
}

// View returns a read-only view of the volatile image without copying.
// The caller must not retain it across Crash/Restore. It charges one read
// access of n bytes (byte-addressable load).
//
// oevet:charge read
func (d *Device) View(off, n int) ([]byte, error) {
	if err := d.check(off, n); err != nil {
		return nil, err
	}
	if err := d.poisonCheck(off, n); err != nil {
		return nil, err
	}
	d.timed.ChargeRead(n)
	return d.image[off : off+n : off+n], nil
}

// Write stores data at off into the volatile image. The data is NOT durable
// until the range is flushed. Stores themselves are charged as DRAM-speed
// cache writes by the caller if desired; the PMem write cost is charged at
// Flush, matching how CLWB-bound persistence behaves on Optane.
//
// oevet:pmem-write
func (d *Device) Write(off int, data []byte) error {
	if err := d.check(off, len(data)); err != nil {
		return err
	}
	d.crashMu.RLock()
	d.saveLocked(off, len(data))
	copy(d.image[off:], data)
	d.crashMu.RUnlock()
	d.bytesWritten.Add(int64(len(data)))
	return nil
}

// Flush persists the range [off, off+n): the CLWB+SFENCE analog. After Flush
// returns, the range survives Crash — unless the armed media-fault model
// fires: a dropped flush silently never reaches the durable image (the
// range keeps its saved bytes), bit-rot flips one deterministic bit after
// the range settles, and poison marks the range uncorrectable. Software cannot observe the fault from Flush itself (it
// still returns nil), exactly like real hardware; detection is the
// checksum/read-back layer's job.
//
// oevet:pmem-flush
// oevet:charge write
func (d *Device) Flush(off, n int) error {
	if err := d.check(off, n); err != nil {
		return err
	}
	d.crashMu.RLock()
	d.flushLocked(off, n)
	d.crashMu.RUnlock()
	d.noteFlushes(n, 1)
	return nil
}

// flushLocked is one line write-back (one CLWB) with the fence and the
// accounting left to the caller: it consults the media-fault model — once
// per call, which is what numbers the fault occurrences — and settles the
// range, dropping its saved bytes so the image is what survives. The caller
// holds crashMu shared across as many write-backs as it groups under one
// fence, then calls noteFlushes.
func (d *Device) flushLocked(off, n int) {
	m := d.media
	if m == nil {
		d.settleLocked(off, n)
		return
	}
	kind, arg := m.faults.FlushFault(m.label)
	if kind != "drop" {
		d.settleLocked(off, n)
	}
	switch kind {
	case "bitrot":
		d.rotLocked(off, n, arg)
	case "poison":
		m.poison(off, n)
	case "none":
		if m.hasPoison.Load() {
			m.clearPoison(off, n)
		}
	}
}

// noteFlushes accounts count write-backs of n bytes each: the traffic
// counters and the device write charge, one op per write-back.
//
// oevet:charge write
func (d *Device) noteFlushes(n int, count int64) {
	d.bytesFlushed.Add(int64(n) * count)
	d.flushOps.Add(count)
	d.timed.ChargeWriteN(n, count)
}

// Persist writes data at off and immediately flushes it, both under one hold
// of the crash lock, so no Crash, Save or ReadDurable sees the store without
// its flush. With the media model unarmed the flush always settles the
// range, so the store saves nothing; an armed model may drop the flush,
// which must leave the previous bytes durable.
//
// oevet:pmem-flush
// oevet:charge write
func (d *Device) Persist(off int, data []byte) error {
	if err := d.check(off, len(data)); err != nil {
		return err
	}
	d.crashMu.RLock()
	if d.media != nil {
		d.saveLocked(off, len(data))
	}
	copy(d.image[off:], data)
	d.flushLocked(off, len(data))
	d.crashMu.RUnlock()
	d.bytesWritten.Add(int64(len(data)))
	d.noteFlushes(len(data), 1)
	return nil
}

// Crash simulates a power failure: every store that was not flushed is lost.
// The saved bytes go back into the image, so the cost is the unflushed
// bytes, not the capacity. The device remains usable; its contents are the
// durable image.
func (d *Device) Crash() {
	d.crashMu.Lock()
	defer d.crashMu.Unlock()
	for line, l := range d.undo.lines {
		l.restore(d.image[line*lineSize:])
	}
	clear(d.undo.lines)
	d.undo.n.Store(0)
}

// lineSize is the granularity of the undo record: one CPU cache line.
const lineSize = 64

// undoRecord holds the durable value of every byte that was stored but not
// yet flushed: one entry per 64-byte line, with a per-byte mask of what the
// entry saved. A store saves only the bytes it covers, never a whole line:
// records share lines with their neighbours and shards write neighbours
// concurrently, so a whole-line save would read a neighbour's bytes in the
// middle of its store — a data race, and a wrong durable value.
type undoRecord struct {
	mu    sync.Mutex
	lines map[int]undoLine // line index → saved bytes
	n     atomic.Int64     // len(lines), read without mu to skip an empty record
}

// undoLine is one line's saved bytes: bit i of mask set means saved[i] is
// the durable value of the line's byte i.
type undoLine struct {
	mask  uint64
	saved [lineSize]byte
}

// spanMask returns the mask bits of the bytes of line that [off, off+n)
// covers.
func spanMask(line, off, n int) uint64 {
	base := line * lineSize
	lo, hi := max(off, base)-base, min(off+n, base+lineSize)-base
	if hi-lo == lineSize {
		return ^uint64(0)
	}
	return (uint64(1)<<(hi-lo) - 1) << lo
}

// overlay lays the saved bytes of the line at device offset base over buf,
// which holds the image bytes at device offset off.
func (l undoLine) overlay(base, off int, buf []byte) {
	for m := l.mask; m != 0; m &= m - 1 {
		i := bits.TrailingZeros64(m)
		if j := base + i - off; j >= 0 && j < len(buf) {
			buf[j] = l.saved[i]
		}
	}
}

// restore writes the saved bytes back into img, the image from the line's
// first byte on.
func (l undoLine) restore(img []byte) {
	for m := l.mask; m != 0; m &= m - 1 {
		i := bits.TrailingZeros64(m)
		img[i] = l.saved[i]
	}
}

// saveLocked records the durable value of every byte of [off, off+n) that
// has none saved yet; call it before storing to the range. The caller holds
// crashMu shared and owns the range, so the bytes read are its own.
func (d *Device) saveLocked(off, n int) {
	if n == 0 {
		return
	}
	u := &d.undo
	u.mu.Lock()
	if u.lines == nil {
		u.lines = make(map[int]undoLine)
	}
	for line := off / lineSize; line*lineSize < off+n; line++ {
		l := u.lines[line]
		want := spanMask(line, off, n) &^ l.mask
		if want == 0 {
			continue
		}
		base := line * lineSize
		for m := want; m != 0; m &= m - 1 {
			i := bits.TrailingZeros64(m)
			l.saved[i] = d.image[base+i]
		}
		l.mask |= want
		u.lines[line] = l
	}
	u.n.Store(int64(len(u.lines)))
	u.mu.Unlock()
}

// settleLocked drops the saved bytes of [off, off+n): the range's image is
// now its durable value. Only the range's owner saves bytes in it, so a
// record with no lines at all has none to drop. The caller holds crashMu
// shared.
func (d *Device) settleLocked(off, n int) {
	u := &d.undo
	if n == 0 || u.n.Load() == 0 {
		return
	}
	u.mu.Lock()
	for line := off / lineSize; line*lineSize < off+n; line++ {
		l, ok := u.lines[line]
		if !ok {
			continue
		}
		if l.mask &^= spanMask(line, off, n); l.mask == 0 {
			delete(u.lines, line)
		} else {
			u.lines[line] = l
		}
	}
	u.n.Store(int64(len(u.lines)))
	u.mu.Unlock()
}

// savedLocked reports whether any byte of [off, off+n) has a saved durable
// value, that is, whether the range's durable bytes differ from its image.
// The caller holds crashMu shared.
func (d *Device) savedLocked(off, n int) bool {
	u := &d.undo
	if n == 0 || u.n.Load() == 0 {
		return false
	}
	u.mu.Lock()
	defer u.mu.Unlock()
	for line := off / lineSize; line*lineSize < off+n; line++ {
		if u.lines[line].mask&spanMask(line, off, n) != 0 {
			return true
		}
	}
	return false
}

// overlayLocked turns buf, which holds the image bytes at off, into the
// durable bytes there. The caller holds crashMu shared.
func (d *Device) overlayLocked(off int, buf []byte) {
	u := &d.undo
	if len(buf) == 0 || u.n.Load() == 0 {
		return
	}
	u.mu.Lock()
	defer u.mu.Unlock()
	for line := off / lineSize; line*lineSize < off+len(buf); line++ {
		if l, ok := u.lines[line]; ok {
			l.overlay(line*lineSize, off, buf)
		}
	}
}

// Stats reports raw store traffic, persisted traffic and flush counts.
type DeviceStats struct {
	BytesWritten int64
	BytesFlushed int64
	FlushOps     int64
}

// Stats returns a snapshot of the device counters.
func (d *Device) Stats() DeviceStats {
	return DeviceStats{
		BytesWritten: d.bytesWritten.Load(),
		BytesFlushed: d.bytesFlushed.Load(),
		FlushOps:     d.flushOps.Load(),
	}
}

// imageMagic guards device image files on disk.
var imageMagic = []byte("OEPMEMv1")

// Save writes the durable image to path (what a real deployment gets for
// free from a DAX-mapped device file). The volatile image is not saved:
// only flushed data survives, preserving crash semantics across processes.
// The image is streamed in chunks with the undo record laid over each, so
// no second full image is made. On error the temporary file is removed.
func (d *Device) Save(path string) error {
	d.crashMu.Lock()
	defer d.crashMu.Unlock()
	if d.image == nil {
		return fmt.Errorf("pmem: save: %w", ErrClosed)
	}
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return fmt.Errorf("pmem: save: %w", err)
	}
	err = d.writeDurable(f)
	if serr := f.Sync(); err == nil {
		err = serr
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp, path)
	}
	if err != nil {
		os.Remove(tmp)
		return fmt.Errorf("pmem: save: %w", err)
	}
	return nil
}

// saveChunk is how much of the durable image Save stages at a time.
const saveChunk = 1 << 20

// writeDurable writes the image magic and the durable image to w. The
// caller holds crashMu exclusively.
func (d *Device) writeDurable(w io.Writer) error {
	if _, err := w.Write(imageMagic); err != nil {
		return err
	}
	buf := make([]byte, min(saveChunk, len(d.image)))
	for off := 0; off < len(d.image); off += len(buf) {
		chunk := buf[:copy(buf, d.image[off:])]
		d.overlayLocked(off, chunk)
		if _, err := w.Write(chunk); err != nil {
			return err
		}
	}
	return nil
}

// OpenFile loads a previously saved device image. The capacity is taken
// from the file: the image is made that size (mapped on linux), then the
// file is read into it. An image with no bytes after the magic is bad, as
// NewDevice refuses a zero capacity. The caller owns the device and
// releases it with Close.
func OpenFile(path string, timed *device.Timed) (*Device, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("pmem: open: %w", err)
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		return nil, fmt.Errorf("pmem: open: %w", err)
	}
	magic := make([]byte, len(imageMagic))
	if st.Size() < int64(len(magic)) {
		return nil, fmt.Errorf("%w: missing magic in %s", ErrBadImage, path)
	}
	if _, err := io.ReadFull(f, magic); err != nil {
		return nil, fmt.Errorf("pmem: open: %w", err)
	}
	if string(magic) != string(imageMagic) {
		return nil, fmt.Errorf("%w: missing magic in %s", ErrBadImage, path)
	}
	size := st.Size() - int64(len(magic))
	if size == 0 {
		return nil, fmt.Errorf("%w: empty image in %s", ErrBadImage, path)
	}
	image, err := mapImage(int(size))
	if err != nil {
		return nil, fmt.Errorf("pmem: open: %w", err)
	}
	if _, err := io.ReadFull(f, image); err != nil {
		unmapImage(image) //nolint:errcheck // the read error is the one to report
		return nil, fmt.Errorf("pmem: open: %w", err)
	}
	return &Device{image: image, timed: timed}, nil
}
