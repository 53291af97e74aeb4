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
)

// Device is a simulated PMem DIMM: a volatile image over a durable one.
//
// Concurrent Read/Write/Flush calls on disjoint ranges are safe; callers
// coordinate access to shared ranges (the Arena does so per slot). Crash and
// Save require quiescence, as on real hardware.
type Device struct {
	image   []byte // what loads/stores observe (CPU-cache analog)
	durable []byte // what survives a power failure
	timed   *device.Timed

	bytesWritten atomic.Int64 // raw store traffic
	bytesFlushed atomic.Int64 // persisted traffic (write amplification basis)
	flushOps     atomic.Int64

	crashMu sync.RWMutex // held exclusively during Crash/Save/restore

	// media is the optional seeded media-fault model (bit-rot, dropped
	// flushes, poisoned ranges); nil on the fault-free path. Set by
	// SetMediaFaults while the device is quiescent.
	media *mediaState
}

// NewDevice creates a device of the given capacity in bytes. The meter may
// be nil, in which case accesses are functionally identical but free.
func NewDevice(capacity int, timed *device.Timed) *Device {
	if capacity <= 0 {
		panic("pmem: non-positive capacity")
	}
	return &Device{
		image:   make([]byte, capacity),
		durable: make([]byte, capacity),
		timed:   timed,
	}
}

// Capacity returns the device size in bytes.
func (d *Device) Capacity() int { return len(d.image) }

// Timed returns the timing wrapper the device charges to (may be nil).
func (d *Device) Timed() *device.Timed { return d.timed }

func (d *Device) check(off, n int) error {
	if off < 0 || n < 0 || off+n > len(d.image) {
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
	copy(d.image[off:], data)
	d.crashMu.RUnlock()
	d.bytesWritten.Add(int64(len(data)))
	return nil
}

// Flush persists the range [off, off+n): the CLWB+SFENCE analog. After Flush
// returns, the range survives Crash — unless the armed media-fault model
// fires: a dropped flush silently never reaches the durable image, bit-rot
// flips one deterministic bit after the copy, and poison marks the range
// uncorrectable. Software cannot observe the fault from Flush itself (it
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
// per call, which is what numbers the fault occurrences — and copies the
// range to the durable image. The caller holds crashMu shared across as
// many write-backs as it groups under one fence, then calls noteFlushes.
func (d *Device) flushLocked(off, n int) {
	m := d.media
	if m == nil {
		copy(d.durable[off:off+n], d.image[off:off+n])
		return
	}
	kind, arg := m.faults.FlushFault(m.label)
	if kind != "drop" {
		copy(d.durable[off:off+n], d.image[off:off+n])
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

// Persist writes data at off and immediately flushes it.
//
// oevet:pmem-flush
// oevet:charge write
func (d *Device) Persist(off int, data []byte) error {
	if err := d.Write(off, data); err != nil {
		return err
	}
	return d.Flush(off, len(data))
}

// Crash simulates a power failure: every store that was not flushed is lost.
// The device remains usable; its contents are the durable image.
func (d *Device) Crash() {
	d.crashMu.Lock()
	defer d.crashMu.Unlock()
	copy(d.image, d.durable)
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
func (d *Device) Save(path string) error {
	d.crashMu.Lock()
	defer d.crashMu.Unlock()
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return fmt.Errorf("pmem: save: %w", err)
	}
	if _, err := f.Write(imageMagic); err != nil {
		f.Close()
		return fmt.Errorf("pmem: save: %w", err)
	}
	if _, err := f.Write(d.durable); err != nil {
		f.Close()
		return fmt.Errorf("pmem: save: %w", err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return fmt.Errorf("pmem: save: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("pmem: save: %w", err)
	}
	return os.Rename(tmp, path)
}

// OpenFile loads a previously saved device image. The capacity is taken
// from the file.
func OpenFile(path string, timed *device.Timed) (*Device, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("pmem: open: %w", err)
	}
	if len(raw) < len(imageMagic) || string(raw[:len(imageMagic)]) != string(imageMagic) {
		return nil, fmt.Errorf("%w: missing magic in %s", ErrBadImage, path)
	}
	data := raw[len(imageMagic):]
	d := &Device{
		image:   make([]byte, len(data)),
		durable: make([]byte, len(data)),
		timed:   timed,
	}
	copy(d.image, data)
	copy(d.durable, data)
	return d, nil
}
