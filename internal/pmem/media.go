package pmem

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
)

// ErrPoisoned indicates a read that touched an uncorrectable (poisoned)
// media range. Real Optane DIMMs raise a machine check for such lines; the
// simulation surfaces a typed error instead of garbage.
var ErrPoisoned = errors.New("pmem: poisoned media range")

// PoisonError reports the poisoned range a read overlapped.
type PoisonError struct {
	Off int // start of the poisoned range
	Len int
}

func (e *PoisonError) Error() string {
	return fmt.Sprintf("pmem: poisoned media range [%d,%d)", e.Off, e.Off+e.Len)
}

func (e *PoisonError) Unwrap() error { return ErrPoisoned }

// IntegrityError marks this as a data-integrity failure (see IsIntegrity).
func (e *PoisonError) IntegrityError() bool { return true }

// IsIntegrity reports whether err is a data-integrity failure — a checksum
// mismatch (ErrCorrupt) or a poisoned-media read (ErrPoisoned) — as opposed
// to a usage or capacity error.
func IsIntegrity(err error) bool {
	return errors.Is(err, ErrCorrupt) || errors.Is(err, ErrPoisoned)
}

// MediaFaults is the seeded fault model SetMediaFaults arms.
// FlushFault consumes one occurrence of label's flush stream and names
// what the medium does to that flush: "none", "drop", "bitrot" (arg picks
// the bit) or "poison". faultinject.Injector implements it; the device
// knows the model only by this method, so nothing built on a device
// imports the injector.
type MediaFaults interface {
	FlushFault(label string) (kind string, arg uint64)
}

// mediaState is the media-fault model attached to a Device: bit-rot in
// flushed lines, silently-dropped flushes and poisoned (uncorrectable-read)
// ranges, every decision a pure function of the model's seed and the
// per-device flush occurrence stream.
type mediaState struct {
	faults MediaFaults
	label  string

	mu        sync.Mutex
	poisoned  []poisonRange
	hasPoison atomic.Bool
}

type poisonRange struct{ off, end int }

// SetMediaFaults arms the seeded media-fault model: every Flush consults
// faults under the given stream label; nil disarms it. Arm the model after
// formatting the arena (so the format itself is not a fault target), while
// nothing uses the device concurrently — on a node, after it starts and
// before any client dials. The model stays armed across Crash. The fault
// stream is deterministic as long as flushes on this device are issued in
// a deterministic order.
func (d *Device) SetMediaFaults(faults MediaFaults, label string) {
	if faults == nil {
		d.media = nil
		return
	}
	d.media = &mediaState{faults: faults, label: label}
}

// MediaFaultsArmed reports whether a media-fault model is attached. Engines
// ask it at each commit to decide whether flushes need read-back
// verification.
func (d *Device) MediaFaultsArmed() bool { return d.media != nil }

// poisonCheck returns a typed error when [off, off+n) overlaps a poisoned
// range. The nil/fast path is a single pointer test plus one atomic load.
func (d *Device) poisonCheck(off, n int) error {
	m := d.media
	if m == nil || !m.hasPoison.Load() {
		return nil
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	for _, r := range m.poisoned {
		if off < r.end && off+n > r.off {
			return &PoisonError{Off: r.off, Len: r.end - r.off}
		}
	}
	return nil
}

// poison marks [off, off+n) uncorrectable.
func (m *mediaState) poison(off, n int) {
	m.mu.Lock()
	m.poisoned = append(m.poisoned, poisonRange{off: off, end: off + n})
	m.hasPoison.Store(true)
	m.mu.Unlock()
}

// clearPoison removes poisoned ranges fully covered by a successful
// rewrite of [off, off+n): rewriting a line heals it.
func (m *mediaState) clearPoison(off, n int) {
	m.mu.Lock()
	kept := m.poisoned[:0]
	for _, r := range m.poisoned {
		if r.off >= off && r.end <= off+n {
			continue
		}
		kept = append(kept, r)
	}
	m.poisoned = kept
	if len(kept) == 0 {
		m.hasPoison.Store(false)
	}
	m.mu.Unlock()
}

// rotLocked flips one Arg-chosen bit of [off, off+n): the line was flushed
// correctly and then silently decayed, so loads and recovery both observe
// the flipped bit. The flush has just settled the range, so the image byte
// is its durable byte and one flip is both. The caller (flushLocked) holds
// crashMu shared.
func (d *Device) rotLocked(off, n int, arg uint64) {
	if n <= 0 {
		return
	}
	byteOff := off + int(arg%uint64(n))
	bit := byte(1) << ((arg >> 32) % 8)
	d.image[byteOff] ^= bit
}

// ReadDurable copies n=len(buf) bytes of the DURABLE image at off into buf:
// the read-back a verified flush performs to prove the line actually
// reached the media. It is a simulation-level verification primitive and
// charges no virtual time; poisoned ranges fail typed like ordinary reads.
func (d *Device) ReadDurable(off int, buf []byte) error {
	if err := d.check(off, len(buf)); err != nil {
		return err
	}
	if err := d.poisonCheck(off, len(buf)); err != nil {
		return err
	}
	d.crashMu.RLock()
	copy(buf, d.image[off:off+len(buf)])
	d.overlayLocked(off, buf)
	d.crashMu.RUnlock()
	return nil
}
