package pmem

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"openembedding/internal/device"
	"openembedding/internal/simclock"
)

func newTestDevice(t *testing.T, capacity int) (*Device, *simclock.Meter) {
	t.Helper()
	m := simclock.NewMeter()
	d := NewDevice(capacity, device.NewTimedPMem(m))
	t.Cleanup(func() { d.Close() })
	return d, m
}

func TestDeviceWriteIsVolatileUntilFlush(t *testing.T) {
	d, _ := newTestDevice(t, 1024)
	data := []byte("hello pmem")
	if err := d.Write(100, data); err != nil {
		t.Fatal(err)
	}
	d.Crash()
	got := make([]byte, len(data))
	if err := d.Read(100, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, make([]byte, len(data))) {
		t.Fatalf("unflushed write survived crash: %q", got)
	}
}

func TestDeviceFlushSurvivesCrash(t *testing.T) {
	d, _ := newTestDevice(t, 1024)
	data := []byte("durable")
	if err := d.Persist(64, data); err != nil {
		t.Fatal(err)
	}
	d.Crash()
	got := make([]byte, len(data))
	if err := d.Read(64, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatalf("flushed write lost: got %q want %q", got, data)
	}
}

func TestDevicePartialFlush(t *testing.T) {
	d, _ := newTestDevice(t, 1024)
	if err := d.Write(0, []byte("aaaabbbb")); err != nil {
		t.Fatal(err)
	}
	if err := d.Flush(0, 4); err != nil { // only first half persisted
		t.Fatal(err)
	}
	d.Crash()
	got := make([]byte, 8)
	if err := d.Read(0, got); err != nil {
		t.Fatal(err)
	}
	want := append([]byte("aaaa"), 0, 0, 0, 0)
	if !bytes.Equal(got, want) {
		t.Fatalf("partial flush wrong: got %q want %q", got, want)
	}
}

func TestDeviceOutOfRange(t *testing.T) {
	d, _ := newTestDevice(t, 16)
	if err := d.Write(10, make([]byte, 10)); !errors.Is(err, ErrOutOfRange) {
		t.Fatalf("want ErrOutOfRange, got %v", err)
	}
	if err := d.Read(-1, make([]byte, 1)); !errors.Is(err, ErrOutOfRange) {
		t.Fatalf("want ErrOutOfRange, got %v", err)
	}
	if err := d.Flush(0, 17); !errors.Is(err, ErrOutOfRange) {
		t.Fatalf("want ErrOutOfRange, got %v", err)
	}
	if _, err := d.View(16, 1); !errors.Is(err, ErrOutOfRange) {
		t.Fatalf("want ErrOutOfRange, got %v", err)
	}
}

func TestDeviceChargesMeter(t *testing.T) {
	d, m := newTestDevice(t, 1024)
	if err := d.Persist(0, make([]byte, 256)); err != nil {
		t.Fatal(err)
	}
	if got := m.Total(simclock.PMemWrite); got <= 0 {
		t.Fatalf("flush charged nothing")
	}
	buf := make([]byte, 256)
	if err := d.Read(0, buf); err != nil {
		t.Fatal(err)
	}
	if got := m.Total(simclock.PMemRead); got < device.PMem().ReadLatency {
		t.Fatalf("read charged %v, want at least read latency", got)
	}
	// Writes without flush charge nothing: persistence cost is paid at flush.
	before := m.Total(simclock.PMemWrite)
	if err := d.Write(0, make([]byte, 64)); err != nil {
		t.Fatal(err)
	}
	if got := m.Total(simclock.PMemWrite); got != before {
		t.Fatalf("unflushed write charged PMem time")
	}
}

func TestDeviceStats(t *testing.T) {
	d, _ := newTestDevice(t, 1024)
	if err := d.Write(0, make([]byte, 100)); err != nil {
		t.Fatal(err)
	}
	if err := d.Flush(0, 50); err != nil {
		t.Fatal(err)
	}
	s := d.Stats()
	if s.BytesWritten != 100 || s.BytesFlushed != 50 || s.FlushOps != 1 {
		t.Fatalf("stats = %+v", s)
	}
}

func TestDeviceSaveAndReopen(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "pmem.img")

	d, _ := newTestDevice(t, 512)
	if err := d.Persist(10, []byte("persisted")); err != nil {
		t.Fatal(err)
	}
	if err := d.Write(100, []byte("volatile")); err != nil { // never flushed
		t.Fatal(err)
	}
	if err := d.Save(path); err != nil {
		t.Fatal(err)
	}

	re, err := OpenFile(path, nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { re.Close() })
	if re.Capacity() != 512 {
		t.Fatalf("capacity = %d", re.Capacity())
	}
	got := make([]byte, 9)
	if err := re.Read(10, got); err != nil {
		t.Fatal(err)
	}
	if string(got) != "persisted" {
		t.Fatalf("flushed data lost across save/open: %q", got)
	}
	vol := make([]byte, 8)
	if err := re.Read(100, vol); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(vol, make([]byte, 8)) {
		t.Fatalf("volatile data survived save/open: %q", vol)
	}
}

// TestDeviceSaveFailureLeavesNoTemp: a Save that fails — here at the rename,
// onto a directory that is not empty — returns an error that says it came
// from the save and leaves no capacity-sized temporary file behind.
func TestDeviceSaveFailureLeavesNoTemp(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "img")
	if err := os.MkdirAll(filepath.Join(path, "occupied"), 0o755); err != nil {
		t.Fatal(err)
	}
	d, _ := newTestDevice(t, 4096)
	if err := d.Persist(0, []byte("durable")); err != nil {
		t.Fatal(err)
	}
	err := d.Save(path)
	if err == nil || !strings.HasPrefix(err.Error(), "pmem: save: ") {
		t.Fatalf("Save onto a non-empty directory = %v, want a pmem: save: error", err)
	}
	if _, serr := os.Stat(path + ".tmp"); !errors.Is(serr, os.ErrNotExist) {
		t.Fatalf("failed Save left %s.tmp behind (stat: %v)", path, serr)
	}
}

func TestOpenFileRejectsBadImage(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "bad.img")
	if err := os.WriteFile(path, []byte("not a pmem image"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenFile(path, nil); !errors.Is(err, ErrBadImage) {
		t.Fatalf("want ErrBadImage, got %v", err)
	}
}

// TestOpenFileRejectsEmptyImage: a file holding only the magic is an image
// of no bytes, which NewDevice would refuse as a capacity; it must not open
// as a zero-capacity device.
func TestOpenFileRejectsEmptyImage(t *testing.T) {
	path := filepath.Join(t.TempDir(), "empty.img")
	if err := os.WriteFile(path, imageMagic, 0o644); err != nil {
		t.Fatal(err)
	}
	d, err := OpenFile(path, nil)
	if err == nil {
		d.Close()
		t.Fatalf("an image of no bytes opened as a %d-byte device", d.Capacity())
	}
	if !errors.Is(err, ErrBadImage) {
		t.Fatalf("want ErrBadImage, got %v", err)
	}
}

// TestDeviceClose: Close is idempotent, and afterwards every access fails
// with ErrClosed — it never panics or touches the released image — and
// Crash does nothing.
func TestDeviceClose(t *testing.T) {
	const payload, slots = 16, 8
	d, _ := newTestDevice(t, ArenaLayout(payload, slots))
	a, err := NewArena(d, payload, slots)
	if err != nil {
		t.Fatal(err)
	}
	recs := batchOf(t, a, batchRows(a, 2, 1), 10, 1)
	if done, err := a.WriteBatch(recs, true); err != nil || done != len(recs) {
		t.Fatalf("WriteBatch = %d, %v", done, err)
	}
	if err := d.Write(0, []byte{1}); err != nil { // leaves a saved byte for Close to drop
		t.Fatal(err)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	if err := d.Close(); err != nil {
		t.Fatalf("second Close = %v", err)
	}
	if c := d.Capacity(); c != 0 {
		t.Fatalf("closed device has capacity %d", c)
	}
	d.Crash()

	path := filepath.Join(t.TempDir(), "closed.img")
	buf := make([]byte, 8)
	reads := []ReadRec{{Slot: recs[0].Slot, Key: recs[0].Key}}
	for name, call := range map[string]func() error{
		"Read":        func() error { return d.Read(0, buf) },
		"Write":       func() error { return d.Write(0, buf) },
		"Flush":       func() error { return d.Flush(0, len(buf)) },
		"Persist":     func() error { return d.Persist(0, buf) },
		"View":        func() error { _, err := d.View(0, len(buf)); return err },
		"ReadDurable": func() error { return d.ReadDurable(0, buf) },
		"Save":        func() error { return d.Save(path) },
		"WriteBatch":  func() error { _, err := a.WriteBatch(recs, false); return err },
		"WriteBatch verified": func() error {
			_, err := a.WriteBatch(recs, true)
			return err
		},
		"ReadScatteredVerified": func() error {
			_, err := a.ReadScatteredVerified(reads, func(int, []byte) { t.Error("a closed device served a record") })
			return err
		},
		"Scan": func() error { return a.Scan(func(Record) error { return nil }) },
	} {
		if err := call(); !errors.Is(err, ErrClosed) {
			t.Errorf("%s after Close = %v, want ErrClosed", name, err)
		}
	}
	if _, err := os.Stat(path); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("Save of a closed device wrote %s (stat: %v)", path, err)
	}
}
