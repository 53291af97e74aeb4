package core

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"openembedding/internal/device"
	"openembedding/internal/pmem"
	"openembedding/internal/psengine"
)

// saveCrashedImage runs script[:crashAt] on a fresh engine, committing the
// checkpoints in ckpts, crashes it and saves the durable image to a file.
func saveCrashedImage(t *testing.T, cfg psengine.Config, script []rollbackStep, crashAt int, ckpts ...int64) string {
	t.Helper()
	eng := newTestEngine(t, cfg)
	for b := 0; b < crashAt; b++ {
		runBatch(t, eng, int64(b), script[b].keys, script[b].grads)
		for _, c := range ckpts {
			if int64(b) == c {
				commitCheckpoint(t, eng, c)
			}
		}
	}
	dev := eng.Arena().Device()
	eng.Close()
	dev.Crash()
	path := filepath.Join(t.TempDir(), "crashed.img")
	if err := dev.Save(path); err != nil {
		t.Fatal(err)
	}
	return path
}

// openImage opens a saved image as a device the test closes.
func openImage(t *testing.T, cfg psengine.Config, path string) *pmem.Device {
	t.Helper()
	dev, err := pmem.OpenFile(path, device.NewTimedPMem(cfg.Meter))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { dev.Close() })
	return dev
}

// TestRecoveredArenaIsDeterministic: one crashed image that retains two
// checkpoints, recovered twice and driven through the same batches and
// checkpoints, must leave the same durable image byte for byte. The
// checkpoints reclaim the records recovery retired for the older retained
// checkpoint, and the freed slots are reused, so the order recovery
// retires them in reaches which slot each later record lands in.
func TestRecoveredArenaIsDeterministic(t *testing.T) {
	cfg := rollbackTestConfig()
	cfg.Capacity = 512
	script := rollbackScript(60)
	const c1, c2, crashAt = 20, 26, 30
	img := saveCrashedImage(t, cfg, script, crashAt, c1, c2)

	resume := func(name string) []byte {
		dev := openImage(t, cfg, img)
		eng, ckpt, err := Recover(cfg, dev)
		if err != nil {
			t.Fatal(err)
		}
		if ckpt != c2 || eng.PrevCompletedCheckpoint() != c1 {
			t.Fatalf("recovered to (%d, prev %d), want (%d, prev %d)", ckpt, eng.PrevCompletedCheckpoint(), c2, c1)
		}
		for b := ckpt + 1; b < int64(len(script)); b++ {
			runBatch(t, eng, b, script[b].keys, script[b].grads)
			if b%6 == 0 {
				commitCheckpoint(t, eng, b)
			}
		}
		eng.Close()
		path := filepath.Join(t.TempDir(), name)
		if err := dev.Save(path); err != nil {
			t.Fatal(err)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	if a, b := resume("a.img"), resume("b.img"); !bytes.Equal(a, b) {
		t.Fatal("two recoveries of one image, driven alike, left different durable images")
	}
}

// recoveredState is what recovery rebuilt: each key's indexed (slot,
// version), the entry count and the arena's slot accounting.
type recoveredState struct {
	index          map[uint64][2]int64
	entries        int
	live, retained int
}

func (s recoveredState) String() string {
	return fmt.Sprintf("%d keys indexed, %d entries, %d live slots, %d retired",
		len(s.index), s.entries, s.live, s.retained)
}

// readRecovered reads e's state through its index for keys below n.
func readRecovered(e *Engine, n uint64) recoveredState {
	st := recoveredState{
		index:    map[uint64][2]int64{},
		entries:  int(e.Stats().Entries),
		live:     e.Arena().LiveSlots(),
		retained: e.Arena().RetiredCount(),
	}
	for k := uint64(0); k < n; k++ {
		t := &e.shardFor(k).index
		if pos, w := t.find(k); w != 0 {
			st.index[k] = [2]int64{int64(wordRef(w)), t.slots[pos].ver}
		}
	}
	return st
}

// scanOracle is recovery by definition, one slot at a time: each key's
// newest record at or below the durable checkpoint (of equal versions, the
// lowest slot), plus a retired slot for each key whose newest record at or
// below the retained previous checkpoint lies elsewhere.
func scanOracle(t *testing.T, cfg psengine.Config, path string) recoveredState {
	t.Helper()
	arena, err := pmem.OpenArena(openImage(t, cfg, path))
	if err != nil {
		t.Fatal(err)
	}
	ckpt, err := arena.CheckpointedBatch()
	if err != nil {
		t.Fatal(err)
	}
	prev, err := arena.PrevCheckpointedBatch()
	if err != nil || prev >= ckpt {
		prev = -1
	}
	type best struct {
		slot    uint32
		version int64
	}
	newest, horiz := map[uint64]best{}, map[uint64]best{}
	keep := func(m map[uint64]best, r pmem.Record) {
		if b, ok := m[r.Key]; !ok || r.Version > b.version {
			m[r.Key] = best{r.Slot, r.Version}
		}
	}
	err = arena.ScanRange(0, uint32(arena.Slots()), func(r pmem.Record) error {
		if r.Version <= ckpt {
			keep(newest, r)
		}
		if r.Version <= prev {
			keep(horiz, r)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	st := recoveredState{index: map[uint64][2]int64{}, entries: len(newest)}
	for k, b := range newest {
		st.index[k] = [2]int64{int64(b.slot), b.version}
		if h, ok := horiz[k]; ok && h.slot != b.slot {
			st.retained++
		}
	}
	st.live = st.entries + st.retained
	return st
}

// TestRecoveryAgreesAcrossWidthsAndShards: one crashed image recovers to
// the same index, entry count and slot accounting whatever the scan width
// and the engine's shard count, and that state is the one-slot-at-a-time
// oracle's — with and without a retained previous checkpoint.
func TestRecoveryAgreesAcrossWidthsAndShards(t *testing.T) {
	const keySpace = 40 // rollbackScript draws keys below this
	script := rollbackScript(40)
	for _, retain := range []int{1, 2} {
		cfg := rollbackTestConfig()
		cfg.RetainCheckpoints = retain
		img := saveCrashedImage(t, cfg, script, len(script), 18, 31)
		want := scanOracle(t, cfg, img)
		if retain == 2 && want.retained == 0 {
			t.Fatal("the image retains no older record: the horizon goes untested")
		}
		for _, shards := range []int{1, 8} {
			for _, workers := range []int{1, 2, 4, 8} {
				name := fmt.Sprintf("retain=%d/shards=%d/workers=%d", retain, shards, workers)
				cfg.Shards = shards
				eng, ckpt, err := RecoverParallel(cfg, openImage(t, cfg, img), workers)
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				got := readRecovered(eng, keySpace)
				eng.Close()
				if ckpt != 31 {
					t.Fatalf("%s: recovered to %d, want 31", name, ckpt)
				}
				if got.String() != want.String() {
					t.Fatalf("%s: recovered %v, want %v", name, got, want)
				}
				for k, w := range want.index {
					if got.index[k] != w {
						t.Fatalf("%s: key %d indexed at (slot, version) %v, want %v", name, k, got.index[k], w)
					}
				}
			}
		}
	}
}
