package pmem

import (
	"bufio"
	"os"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"testing"

	"openembedding/internal/device"
)

// vmRSS reads the process's resident set size from /proc/self/status.
func vmRSS(t *testing.T) int64 {
	t.Helper()
	f, err := os.Open("/proc/self/status")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if fields := strings.Fields(sc.Text()); len(fields) == 3 && fields[0] == "VmRSS:" {
			kb, err := strconv.ParseInt(fields[1], 10, 64)
			if err != nil {
				t.Fatal(err)
			}
			return kb << 10
		}
	}
	t.Fatal("no VmRSS line in /proc/self/status")
	return 0
}

// TestDeviceCostsWhatItWrites pins where the image lives: outside the Go
// heap, costing resident memory only for the pages written. A device built
// after another was written and dropped — the benchmark's repeated set-up —
// grows neither the heap nor the resident set by its capacity, and Close
// returns the pages it wrote.
func TestDeviceCostsWhatItWrites(t *testing.T) {
	const (
		capacity = 256 << 20
		payload  = 152
		records  = (1 << 20) / (slotHeaderLen + payload) // 1 MiB of records
		written  = 32 << 20
	)
	first := NewDevice(capacity, device.NewTimedPMem(nil))
	a, err := NewArena(first, payload, records)
	if err != nil {
		t.Fatal(err)
	}
	recs := make([]WriteRec, records)
	row := make([]float32, payload/4)
	for i := range recs {
		recs[i] = WriteRec{Slot: uint32(i), Key: uint64(i), Version: 1, Row: row, Old: NoSlot}
	}
	if done, err := a.WriteBatch(recs, false); err != nil || done != records {
		t.Fatalf("WriteBatch = %d, %v", done, err)
	}
	if err := first.Close(); err != nil {
		t.Fatal(err)
	}
	runtime.GC()
	debug.FreeOSMemory()

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	rss0 := vmRSS(t)
	d := NewDevice(capacity, device.NewTimedPMem(nil))
	t.Cleanup(func() { d.Close() })
	runtime.ReadMemStats(&after)
	rss1 := vmRSS(t)
	if grew := int64(after.HeapAlloc) - int64(before.HeapAlloc); grew >= 1<<20 {
		t.Errorf("a %d MiB device grew the heap by %.1f MiB", capacity>>20, float64(grew)/(1<<20))
	}
	if grew := rss1 - rss0; grew >= 16<<20 {
		t.Errorf("a %d MiB device grew the resident set by %.1f MiB before a byte was written", capacity>>20, float64(grew)/(1<<20))
	}

	chunk := make([]byte, 1<<20)
	for off := 0; off < written; off += len(chunk) {
		if err := d.Persist(off, chunk); err != nil {
			t.Fatal(err)
		}
	}
	rss2 := vmRSS(t)
	if grew := rss2 - rss1; grew < written*3/4 {
		t.Fatalf("writing %d MiB grew the resident set by only %.1f MiB", written>>20, float64(grew)/(1<<20))
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	if fell := rss2 - vmRSS(t); fell < written*3/4 {
		t.Errorf("Close of a device with %d MiB written gave back only %.1f MiB", written>>20, float64(fell)/(1<<20))
	}
}
