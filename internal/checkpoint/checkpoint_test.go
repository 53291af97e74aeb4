package checkpoint

import (
	"encoding/binary"
	"errors"
	"hash/crc32"
	"os"
	"path/filepath"
	"testing"

	"openembedding/internal/device"
	"openembedding/internal/simclock"
)

func testWriter(t *testing.T) (*Writer, string, *simclock.Meter) {
	t.Helper()
	dir := t.TempDir()
	m := simclock.NewMeter()
	w, err := NewWriter(dir, device.NewTimedSSD(m), nil)
	if err != nil {
		t.Fatal(err)
	}
	return w, dir, m
}

func TestWriteReadDelta(t *testing.T) {
	w, dir, m := testWriter(t)
	in := []Entry{
		{Key: 1, Payload: []float32{1, 2, 3}},
		{Key: 9, Payload: []float32{-4.5}},
	}
	if err := w.WriteDelta(7, in); err != nil {
		t.Fatal(err)
	}
	if m.Total(simclock.SSDWrite) <= 0 {
		t.Fatal("write charged nothing to the checkpoint device")
	}
	out, err := ReadDelta(dir, 7, device.NewTimedSSD(m))
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 2 || out[0].Key != 1 || out[1].Key != 9 {
		t.Fatalf("out = %+v", out)
	}
	for i := range in {
		for j := range in[i].Payload {
			if out[i].Payload[j] != in[i].Payload[j] {
				t.Fatalf("payload mismatch at %d/%d", i, j)
			}
		}
	}
	if m.Total(simclock.SSDRead) <= 0 {
		t.Fatal("read charged nothing")
	}
}

func TestListSorted(t *testing.T) {
	w, dir, _ := testWriter(t)
	for _, b := range []int64{30, 10, 20} {
		if err := w.WriteDelta(b, nil); err != nil {
			t.Fatal(err)
		}
	}
	got, err := List(dir)
	if err != nil {
		t.Fatal(err)
	}
	want := []int64{10, 20, 30}
	if len(got) != 3 {
		t.Fatalf("List = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("List = %v, want %v", got, want)
		}
	}
}

func TestListIgnoresForeignFiles(t *testing.T) {
	w, dir, _ := testWriter(t)
	if err := w.WriteDelta(1, nil); err != nil {
		t.Fatal(err)
	}
	os.WriteFile(filepath.Join(dir, "notes.txt"), []byte("x"), 0o644)
	os.WriteFile(filepath.Join(dir, "delta-bogus.ckpt"), []byte("x"), 0o644)
	got, err := List(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0] != 1 {
		t.Fatalf("List = %v", got)
	}
}

func TestRestoreReplaysChainInOrder(t *testing.T) {
	w, dir, m := testWriter(t)
	// Key 5 updated in both deltas; the newer one must win.
	if err := w.WriteDelta(10, []Entry{{Key: 5, Payload: []float32{1}}, {Key: 6, Payload: []float32{2}}}); err != nil {
		t.Fatal(err)
	}
	if err := w.WriteDelta(20, []Entry{{Key: 5, Payload: []float32{99}}}); err != nil {
		t.Fatal(err)
	}
	state, newest, err := Restore(dir, -1, device.NewTimedSSD(m))
	if err != nil {
		t.Fatal(err)
	}
	if newest != 20 {
		t.Fatalf("newest = %d", newest)
	}
	if state[5][0] != 99 || state[6][0] != 2 {
		t.Fatalf("state = %v", state)
	}
	// Bounded restore stops before batch 20.
	state, newest, err = Restore(dir, 15, device.NewTimedSSD(m))
	if err != nil {
		t.Fatal(err)
	}
	if newest != 10 || state[5][0] != 1 {
		t.Fatalf("bounded restore: newest=%d state=%v", newest, state)
	}
}

func TestRestoreEmptyDir(t *testing.T) {
	_, _, err := Restore(t.TempDir(), -1, nil)
	if !errors.Is(err, ErrNoCheckpoint) {
		t.Fatalf("want ErrNoCheckpoint, got %v", err)
	}
}

func TestReadDeltaDetectsCorruption(t *testing.T) {
	// reseal rewrites the trailing CRC32C over an edited file, so only the
	// header checks stand between the edit and the reader.
	reseal := func(raw []byte) {
		binary.LittleEndian.PutUint32(raw[len(raw)-4:], crc32.Checksum(raw[:len(raw)-4], crcTable))
	}
	for _, tc := range []struct {
		name string
		edit func(raw []byte)
	}{
		{"flipped byte", func(raw []byte) { raw[len(raw)/2] ^= 0xff }},
		{"count past the body", func(raw []byte) {
			binary.LittleEndian.PutUint64(raw[16:], 1<<60)
			reseal(raw)
		}},
		{"nonzero flags", func(raw []byte) {
			binary.LittleEndian.PutUint64(raw[24:], 1)
			reseal(raw)
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			w, dir, _ := testWriter(t)
			if err := w.WriteDelta(3, []Entry{{Key: 1, Payload: []float32{1, 2}}}); err != nil {
				t.Fatal(err)
			}
			path := filepath.Join(dir, deltaName(3))
			raw, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			tc.edit(raw)
			if err := os.WriteFile(path, raw, 0o644); err != nil {
				t.Fatal(err)
			}
			if _, err := ReadDelta(dir, 3, nil); !errors.Is(err, ErrCorrupt) {
				t.Fatalf("want ErrCorrupt, got %v", err)
			}
		})
	}
}

func TestReadDeltaBatchMismatch(t *testing.T) {
	w, dir, _ := testWriter(t)
	if err := w.WriteDelta(3, nil); err != nil {
		t.Fatal(err)
	}
	// Rename the file so the embedded batch ID disagrees with the name.
	if err := os.Rename(filepath.Join(dir, deltaName(3)), filepath.Join(dir, deltaName(4))); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadDelta(dir, 4, nil); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("want ErrCorrupt, got %v", err)
	}
}
