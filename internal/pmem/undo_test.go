package pmem

import (
	"bytes"
	"encoding/binary"
	"math/rand/v2"
	"path/filepath"
	"runtime"
	"sync"
	"testing"

	"openembedding/internal/device"
)

// twoImageDevice is the device as it was before the undo record: a volatile
// image over a second, full-capacity durable copy, with flushes copying the
// range across. It is the reference model the one-image device must agree
// with, byte for byte, on what loads see and what survives.
type twoImageDevice struct {
	image, durable []byte
	media          *mediaState
}

func (m *twoImageDevice) arm(faults MediaFaults) {
	m.media = nil
	if faults != nil {
		m.media = &mediaState{faults: faults, label: "m"}
	}
}

func (m *twoImageDevice) Write(off int, data []byte) { copy(m.image[off:], data) }

func (m *twoImageDevice) Flush(off, n int) {
	if m.media == nil {
		copy(m.durable[off:off+n], m.image[off:off+n])
		return
	}
	kind, arg := m.media.faults.FlushFault(m.media.label)
	if kind != "drop" {
		copy(m.durable[off:off+n], m.image[off:off+n])
	}
	switch kind {
	case "bitrot":
		b, bit := off+int(arg%uint64(n)), byte(1)<<((arg>>32)%8)
		m.image[b] ^= bit
		m.durable[b] ^= bit
	case "poison":
		m.media.poison(off, n)
	case "none":
		if m.media.hasPoison.Load() {
			m.media.clearPoison(off, n)
		}
	}
}

func (m *twoImageDevice) Persist(off int, data []byte) { m.Write(off, data); m.Flush(off, len(data)) }

func (m *twoImageDevice) Crash() { copy(m.image, m.durable) }

// reopen is Save followed by OpenFile: the durable image becomes both, and
// the reopened device starts with no poison until the model is re-armed.
func (m *twoImageDevice) reopen(faults MediaFaults) {
	m.image = bytes.Clone(m.durable)
	m.arm(faults)
}

func (m *twoImageDevice) read(from []byte, off, n int) ([]byte, error) {
	if m.media != nil && m.media.hasPoison.Load() {
		for _, r := range m.media.poisoned {
			if off < r.end && off+n > r.off {
				return nil, &PoisonError{Off: r.off, Len: r.end - r.off}
			}
		}
	}
	return bytes.Clone(from[off : off+n]), nil
}

// durableImage returns a copy of the device's durable image: the image with
// the undo record laid over it.
func (d *Device) durableImage() []byte {
	d.crashMu.RLock()
	defer d.crashMu.RUnlock()
	img := bytes.Clone(d.image)
	d.overlayLocked(0, img)
	return img
}

// savedLines reports how many lines of the undo record hold saved bytes.
func (d *Device) savedLines() int {
	d.undo.mu.Lock()
	defer d.undo.mu.Unlock()
	return len(d.undo.lines)
}

// scriptedFaults is a seeded media model that drops, rots and poisons
// flushes at the given rates (per hundred flushes), counting each kind.
type scriptedFaults struct {
	mu                   sync.Mutex
	rng                  *rand.Rand
	drop, rot, poison    int
	drops, rots, poisons int64
}

func newScriptedFaults(seed uint64, drop, rot, poison int) *scriptedFaults {
	return &scriptedFaults{rng: rand.New(rand.NewPCG(seed, 0x0e)), drop: drop, rot: rot, poison: poison}
}

func (s *scriptedFaults) FlushFault(string) (string, uint64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	r, arg := s.rng.IntN(100), s.rng.Uint64()
	switch {
	case r < s.drop:
		s.drops++
		return "drop", arg
	case r < s.drop+s.rot:
		s.rots++
		return "bitrot", arg
	case r < s.drop+s.rot+s.poison:
		s.poisons++
		return "poison", arg
	}
	return "none", arg
}

// TestDeviceMatchesTwoImageModel drives the one-image device and the
// two-image model with the same seeded operations — stores, flushes and
// persists over ranges that cross lines and cover parts of lines, crashes,
// Save→OpenFile round trips, and a media model that drops, rots and poisons
// flushes — and after every operation compares Read and ReadDurable of the
// whole device and of each line.
func TestDeviceMatchesTwoImageModel(t *testing.T) {
	const capacity = 1024
	for _, seed := range []uint64{1, 7, 42, 2026} {
		rng := rand.New(rand.NewPCG(seed, 1))
		d := NewDevice(capacity, device.NewTimedPMem(nil))
		m := &twoImageDevice{image: make([]byte, capacity), durable: make([]byte, capacity)}
		var faults, mfaults MediaFaults
		path := filepath.Join(t.TempDir(), "img")
		span := func() (int, int) {
			off := rng.IntN(capacity)
			return off, 1 + rng.IntN(min(200, capacity-off))
		}
		for op := 0; op < 3000; op++ {
			var what string
			switch r := rng.IntN(100); {
			case r < 40:
				off, n := span()
				data := make([]byte, n)
				for i := range data {
					data[i] = byte(rng.Uint32())
				}
				what = "write"
				if r < 15 {
					what = "persist"
					m.Persist(off, data)
					if err := d.Persist(off, data); err != nil {
						t.Fatal(err)
					}
				} else {
					m.Write(off, data)
					if err := d.Write(off, data); err != nil {
						t.Fatal(err)
					}
				}
			case r < 80:
				what = "flush"
				off, n := span()
				m.Flush(off, n)
				if err := d.Flush(off, n); err != nil {
					t.Fatal(err)
				}
			case r < 90:
				what = "crash"
				m.Crash()
				d.Crash()
			case r < 95:
				what = "save and reopen"
				if err := d.Save(path); err != nil {
					t.Fatal(err)
				}
				var err error
				if d, err = OpenFile(path, device.NewTimedPMem(nil)); err != nil {
					t.Fatal(err)
				}
				d.SetMediaFaults(faults, "m")
				m.reopen(mfaults)
			default:
				what = "arm"
				if faults == nil {
					s := rng.Uint64()
					faults, mfaults = newScriptedFaults(s, 20, 10, 5), newScriptedFaults(s, 20, 10, 5)
				} else {
					faults, mfaults = nil, nil
				}
				d.SetMediaFaults(faults, "m")
				m.arm(mfaults)
			}
			for off := 0; off < capacity; off += lineSize {
				for _, n := range []int{capacity - off, lineSize} {
					got := make([]byte, n)
					gerr := d.Read(off, got)
					want, werr := m.read(m.image, off, n)
					if !sameRead(got, gerr, want, werr) {
						t.Fatalf("seed %d op %d (%s): Read(%d, %d) = %v, %x; model %v, %x", seed, op, what, off, n, gerr, got, werr, want)
					}
					gerr = d.ReadDurable(off, got)
					want, werr = m.read(m.durable, off, n)
					if !sameRead(got, gerr, want, werr) {
						t.Fatalf("seed %d op %d (%s): ReadDurable(%d, %d) = %v, %x; model %v, %x", seed, op, what, off, n, gerr, got, werr, want)
					}
				}
			}
		}
	}
}

func sameRead(got []byte, gerr error, want []byte, werr error) bool {
	if gerr != nil || werr != nil {
		return gerr != nil && werr != nil && gerr.Error() == werr.Error()
	}
	return bytes.Equal(got, want)
}

// TestDeviceNeighbourRecordsShareALine: records of 152 bytes share cache
// lines with their neighbours, and two shards write neighbours at the same
// time. Two goroutines group-commit the even and the odd slots of one arena
// under a model that drops a third of the flushes, then the power fails.
// Every slot must come back whole — the new record if its flush landed, the
// old one if it was dropped — exactly as the two-image model says, with one
// old record per dropped flush. Run it under -race: saving more than a
// store's own bytes reads a neighbour's bytes in the middle of its store.
func TestDeviceNeighbourRecordsShareALine(t *testing.T) {
	const payload, slots, rounds = 128, 96, 8
	d := NewDevice(ArenaLayout(payload, slots), device.NewTimedPMem(nil))
	a, err := NewArena(d, payload, slots)
	if err != nil {
		t.Fatal(err)
	}
	row := func(slot uint32, version int64) []float32 {
		r := make([]float32, payload/4)
		for i := range r {
			r[i] = float32(version)*1000 + float32(slot) + float32(i)/64
		}
		return r
	}
	recs := func(parity uint32, version int64) []WriteRec {
		var out []WriteRec
		for s := parity; s < slots; s += 2 {
			out = append(out, WriteRec{Slot: s, Key: uint64(s), Version: version, Row: row(s, version), Old: NoSlot})
		}
		return out
	}
	for parity := uint32(0); parity < 2; parity++ {
		if _, err := a.WriteBatch(recs(parity, 1), false); err != nil {
			t.Fatal(err)
		}
	}
	faults := newScriptedFaults(20261017, 33, 0, 0)
	d.SetMediaFaults(faults, "m")
	var wg sync.WaitGroup
	for parity := uint32(0); parity < 2; parity++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for v := int64(2); v < 2+rounds; v++ {
				if _, err := a.WriteBatch(recs(parity, v), false); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	d.Crash()

	// The model replays each slot's writes: a slot whose surviving record is
	// version v had every later flush dropped.
	m := &twoImageDevice{image: make([]byte, d.Capacity()), durable: make([]byte, d.Capacity())}
	enc := NewDevice(d.Capacity(), device.NewTimedPMem(nil))
	ea, err := NewArena(enc, payload, slots)
	if err != nil {
		t.Fatal(err)
	}
	m.Persist(0, enc.image[:arenaHeaderLen])
	var dropped int64
	n := a.recLen()
	for s := uint32(0); s < slots; s++ {
		off := a.slotOffset(s)
		kept := int64(binary.LittleEndian.Uint64(d.image[off+8:]))
		if kept < 1 || kept >= 2+rounds {
			t.Fatalf("slot %d survived with version %d, not a version it was written with", s, kept)
		}
		for v := int64(1); v < 2+rounds; v++ {
			if _, err := ea.WriteBatch([]WriteRec{{Slot: s, Key: uint64(s), Version: v, Row: row(s, v), Old: NoSlot}}, false); err != nil {
				t.Fatal(err)
			}
			m.Write(off, enc.image[off:off+n])
			if v == 1 || v <= kept {
				m.Flush(off, n)
			} else {
				dropped++
			}
		}
	}
	m.Crash()
	if got := d.durableImage(); !bytes.Equal(got, m.durable) {
		for s := uint32(0); s < slots; s++ {
			off := a.slotOffset(s)
			if !bytes.Equal(got[off:off+n], m.durable[off:off+n]) {
				t.Fatalf("slot %d came back torn: durable %x, model %x", s, got[off:off+n], m.durable[off:off+n])
			}
		}
		t.Fatal("durable image differs from the two-image model outside the records")
	}
	// A slot keeps version v only if every later flush was dropped, so the
	// model's drop count is at most the real one; a dropped flush followed
	// by a landed one is the difference.
	if dropped > faults.drops {
		t.Fatalf("%d flushes had to be dropped for the slots to come back as they did, the media dropped %d", dropped, faults.drops)
	}
}

// TestDeviceHoldsOneImage pins the device's memory: one image of its
// capacity, plus only the bytes stored and not yet flushed — none at all on
// the unarmed path, where every store is flushed under the same hold of the
// crash lock.
func TestDeviceHoldsOneImage(t *testing.T) {
	const capacity = 64 << 20
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	d := NewDevice(capacity, device.NewTimedPMem(nil))
	runtime.GC()
	runtime.ReadMemStats(&after)
	if grew := int64(after.HeapAlloc) - int64(before.HeapAlloc); float64(grew) >= 1.1*capacity {
		t.Fatalf("a %d MiB device grew the heap by %.1f MiB, more than 1.1x its capacity", capacity>>20, float64(grew)/(1<<20))
	}
	const payload, slots = 152, 4096
	a, err := NewArena(d, payload, slots)
	if err != nil {
		t.Fatal(err)
	}
	recs := make([]WriteRec, slots)
	for i := range recs {
		recs[i] = WriteRec{Slot: uint32(i), Key: uint64(i), Version: 1, Row: make([]float32, payload/4), Old: NoSlot}
	}
	if done, err := a.WriteBatch(recs, true); err != nil || done != slots {
		t.Fatalf("WriteBatch = %d, %v", done, err)
	}
	if n := d.savedLines(); n != 0 {
		t.Fatalf("an unarmed group commit left %d lines saved", n)
	}
	if err := d.Persist(12345, make([]byte, 300)); err != nil {
		t.Fatal(err)
	}
	if n := d.savedLines(); n != 0 {
		t.Fatalf("an unarmed Persist left %d lines saved", n)
	}
	if err := d.Write(1<<20, make([]byte, 100)); err != nil {
		t.Fatal(err)
	}
	d.Crash()
	if n := d.savedLines(); n != 0 {
		t.Fatalf("Crash left %d lines saved", n)
	}
}
