package core

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"testing"

	"openembedding/internal/optim"
	"openembedding/internal/pmem"
	"openembedding/internal/psengine"
)

// TestIndexBytesPerEntry is the DRAM index's footprint, the number Table V's
// deployment rests on (DESIGN.md §23): 2^20 entries built through the batch
// protocol over a 1 024-entry cache, so all but the cache's live only in
// PMem, grow the live Go heap by at most 48 bytes each. An index that keeps
// a heap object per key (a map of 128-byte entries) grows it by ~166.
func TestIndexBytesPerEntry(t *testing.T) {
	const (
		dim     = 16
		entries = 1 << 20
		chunk   = 4096
	)
	cfg := testConfig(dim, entries, 1024)
	cfg.Shards = 2
	cfg.Meter = nil
	e := newTestEngine(t, cfg)
	keys := make([]uint64, chunk)
	dst := make([]float32, chunk*dim)
	grads := constGrads(chunk, dim, 1)

	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	for b := int64(0); b < entries/chunk; b++ {
		for i := range keys {
			keys[i] = uint64(b)*chunk + uint64(i)
		}
		if err := e.Pull(b, keys, dst); err != nil {
			t.Fatal(err)
		}
		e.EndPullPhase(b)
		if err := e.Push(b, keys, grads); err != nil {
			t.Fatal(err)
		}
		if err := e.EndBatch(b); err != nil {
			t.Fatal(err)
		}
	}
	runtime.GC()
	runtime.ReadMemStats(&m1)
	st := e.Stats()
	if st.Entries != entries || st.CachedEntries > 1024 {
		t.Fatalf("%d entries, %d cached: want %d, at most 1024 cached", st.Entries, st.CachedEntries, entries)
	}
	per := (float64(m1.HeapAlloc) - float64(m0.HeapAlloc)) / entries
	t.Logf("live heap grew by %.1f bytes per entry (%d entries, %d cached)", per, st.Entries, st.CachedEntries)
	if raceEnabled || lockRankDebug {
		return // instrumentation changes what the heap holds
	}
	if per > 48 {
		t.Errorf("the index costs %.1f bytes of live heap per PMem-resident entry, want <= 48", per)
	}
}

// TestColdFormEverySite runs one key stream on two engines that differ only
// in cache size — 16 entries, so nearly every key is a cold index slot, and
// one that caches every key, so none is — and requires every index site to
// answer the same, bit for bit: pulls, Keys, the entry count, export pages,
// serving (fallback reads and a refresh), a scrub repair, a drop of half the
// keys and their re-creation, crash + Recover, and a scrub fence on the
// recovered engines. The keys include 0 and MaxUint64, so no key value can
// stand for an empty slot, and the drop deletes from the middle of probe
// runs. A last case crashes while an evicted entry's write-back is queued
// (its hot form outlives its cache residency): recovery lands on the
// completed checkpoint.
func TestColdFormEverySite(t *testing.T) {
	const dim = 4
	keys := []uint64{0, math.MaxUint64, math.MaxUint64 - 1, 1 << 63, 0x9e3779b97f4a7c15}
	for k := uint64(1); len(keys) < 48; k++ {
		keys = append(keys, k*k*977)
	}
	scfg := testConfig(dim, 256, 16)
	scfg.Shards = 2
	scfg.Optimizer = optim.NewAdaGrad(0.1) // cold rows carry optimizer state too
	bcfg := scfg
	bcfg.CacheEntries = 256
	small, sdev := newFaultEngine(t, scfg, 1024, nil)
	big, bdev := newFaultEngine(t, bcfg, 1024, nil)

	same := func(what string, a, b []float32) {
		t.Helper()
		if len(a) != len(b) {
			t.Fatalf("%s: %d floats against %d", what, len(a), len(b))
		}
		for i := range a {
			if math.Float32bits(a[i]) != math.Float32bits(b[i]) {
				t.Fatalf("%s: float %d is %v with a 16-entry cache, %v with every key cached", what, i, a[i], b[i])
			}
		}
	}
	sameKeys := func(what string, s, b *Engine) {
		t.Helper()
		if ks, kb := s.Keys(), b.Keys(); !slices.Equal(ks, kb) {
			t.Fatalf("%s: Keys %v against %v", what, ks, kb)
		}
		if ns, nb := s.Stats().Entries, b.Stats().Entries; ns != nb {
			t.Fatalf("%s: %d entries against %d", what, ns, nb)
		}
	}
	batch := int64(0)
	// step runs one batch of ks (with repeats) on both engines and compares
	// what the pulls returned.
	step := func(s, b *Engine, ks []uint64) {
		t.Helper()
		grads := make([]float32, len(ks)*dim)
		for i, k := range ks {
			for d := 0; d < dim; d++ {
				grads[i*dim+d] = float32(int(k%7)-3+d) * 0.01 * float32(batch%3+1)
			}
		}
		same(fmt.Sprintf("batch %d pull", batch), runBatch(t, s, batch, ks, grads), runBatch(t, b, batch, ks, grads))
		batch++
	}
	rng := rand.New(rand.NewSource(1))
	draw := func(n int) []uint64 {
		ks := make([]uint64, n)
		for i := range ks {
			ks[i] = keys[rng.Intn(len(keys))]
		}
		return ks
	}
	checkpoint := func(s, b *Engine) {
		t.Helper()
		commitCheckpoint(t, s, batch-1)
		commitCheckpoint(t, b, batch-1)
	}

	// Training, with checkpoints.
	step(small, big, keys)
	for i := 0; i < 30; i++ {
		step(small, big, draw(12))
		if i%10 == 9 {
			checkpoint(small, big)
		}
	}
	sameKeys("after training", small, big)
	if st := small.Stats(); st.CachedEntries > 16 || st.Entries != int64(len(keys)) {
		t.Fatalf("small engine caches %d of %d entries: not the cold regime", st.CachedEntries, st.Entries)
	}

	// Export pages, whole and since a batch.
	for _, since := range []int64{migSince, batch - 5} {
		var from [2]uint64
		for page := 0; ; page++ {
			var got [2][]psengine.MigEntry
			var more [2]bool
			for i, e := range []*Engine{small, big} {
				var err error
				if got[i], more[i], err = e.ExportRange(matchAll, since, from[i], 5); err != nil {
					t.Fatal(err)
				}
				if len(got[i]) > 0 {
					from[i] = got[i][len(got[i])-1].Key + 1
				}
			}
			if len(got[0]) != len(got[1]) || more[0] != more[1] {
				t.Fatalf("since %d page %d: %d entries (more %v) against %d (more %v)", since, page, len(got[0]), more[0], len(got[1]), more[1])
			}
			for j := range got[0] {
				a, b := got[0][j], got[1][j]
				if a.Key != b.Key || a.Version != b.Version {
					t.Fatalf("since %d page %d: key %d v%d against key %d v%d", since, page, a.Key, a.Version, b.Key, b.Version)
				}
				same(fmt.Sprintf("export of key %d", a.Key), a.Data, b.Data)
			}
			if !more[0] {
				break
			}
		}
	}

	// Serving: fallback reads, a refresh, and reads again.
	serveAll := func(what string, wantPMem bool) {
		t.Helper()
		var fromPMem int
		got, want := make([]float32, dim), make([]float32, dim)
		for _, k := range append(keys, 12345) {
			src, err := small.ServeRead(k, got)
			if err != nil {
				t.Fatal(err)
			}
			if src == ServePMem {
				fromPMem++
			}
			if _, err := big.ServeRead(k, want); err != nil {
				t.Fatal(err)
			}
			same(fmt.Sprintf("%s: serve of key %d", what, k), got, want)
		}
		if wantPMem && fromPMem == 0 {
			t.Fatalf("%s: no read fell back to PMem", what)
		}
	}
	small.EnableServeSnapshots()
	big.EnableServeSnapshots()
	serveAll("before refresh", true)
	for _, e := range []*Engine{small, big} {
		if err := e.RefreshServeSnapshots(); err != nil {
			t.Fatal(err)
		}
	}
	serveAll("after refresh", false)
	for i := 0; i < 3; i++ {
		step(small, big, draw(12))
	}
	checkpoint(small, big)

	// A flipped bit in a record each engine holds: corrected in place.
	var flipped uint64
	for _, k := range keys {
		_, w := small.shardFor(k).index.find(k)
		if ss, bs := small.shardFor(k).entryOf(k), big.shardFor(k).entryOf(k); ss.slot != noSlot && bs.slot != noSlot && w&tagHot == 0 {
			corruptSlot(t, small.Arena(), ss.slot)
			corruptSlot(t, big.Arena(), bs.slot)
			flipped = k
			break
		}
	}
	for _, e := range []*Engine{small, big} {
		rep, err := e.Scrub()
		if err != nil || rep.Corrupt != 1 || rep.Repaired != 1 || rep.Fenced != 0 || rep.Restored != 0 {
			t.Fatalf("scrub of key %d's flipped bit: %+v, %v", flipped, rep, err)
		}
	}
	step(small, big, keys)

	// Drop half the keys, then bring them back.
	ds, err := small.DropRange(matchOdd)
	if err != nil {
		t.Fatal(err)
	}
	db, err := big.DropRange(matchOdd)
	if err != nil || ds != db || ds == 0 {
		t.Fatalf("dropped %d and %d keys (%v)", ds, db, err)
	}
	sameKeys("after the drop", small, big)
	step(small, big, keys)
	sameKeys("after re-creation", small, big)
	for i := 0; i < 5; i++ {
		step(small, big, draw(12))
	}
	checkpoint(small, big)

	// Crash and recover: both engines come back cold at the checkpoint.
	recoverBoth := func() (*Engine, *Engine) {
		t.Helper()
		var out [2]*Engine
		for i, dev := range []*pmem.Device{sdev, bdev} {
			dev.Crash()
			r, at, err := Recover([]psengine.Config{scfg, bcfg}[i], dev)
			if err != nil || at != batch-1 {
				t.Fatalf("recovered to %d, want %d (%v)", at, batch-1, err)
			}
			t.Cleanup(func() { r.Close() })
			out[i] = r
		}
		return out[0], out[1]
	}
	small, big = recoverBoth()
	sameKeys("after recovery", small, big)

	// A record lost beyond correction, with no retained older copy: both
	// recovered engines fence the key, and its next touch re-creates it.
	lost := keys[2]
	smashSlot(t, small.Arena(), small.shardFor(lost).entryOf(lost).slot)
	smashSlot(t, big.Arena(), big.shardFor(lost).entryOf(lost).slot)
	for _, e := range []*Engine{small, big} {
		rep, err := e.Scrub()
		if err != nil || rep.Corrupt != 1 || rep.Fenced != 1 {
			t.Fatalf("scrub of key %d's lost record: %+v, %v", lost, rep, err)
		}
	}
	sameKeys("after the fence", small, big)
	step(small, big, keys)
	sameKeys("after the fenced key's re-creation", small, big)
	for i := 0; i < 5; i++ {
		step(small, big, draw(12))
	}

	// The hard case: a round has evicted dirty entries, their write-backs are
	// queued and the entries are still hot, with no row — and the power goes.
	checkpoint(small, big)
	want := exportAll(t, small, matchAll, migSince, 100)
	step(small, big, keys[:8])
	s := small.shards[0]
	s.mu.Lock()
	var queued []*entry
	for s.lru.Len() > 0 {
		victim := s.lru.Back().Value
		dirty := victim.dirty
		s.evictLocked(victim)
		if dirty {
			queued = append(queued, victim)
		}
	}
	if len(queued) == 0 {
		s.mu.Unlock()
		t.Fatal("no dirty victim: nothing queued")
	}
	for _, ent := range queued {
		if _, w := s.index.find(ent.key); w&tagHot == 0 || !ent.wbPending || ent.inDRAM() {
			s.mu.Unlock()
			t.Fatalf("key %d: word %#x, write-back pending %v, in DRAM %v: not the hot form of a queued eviction", ent.key, w, ent.wbPending, ent.inDRAM())
		}
	}
	sdev.Crash()
	s.mu.Unlock()
	r, at, err := Recover(scfg, sdev)
	if err != nil || at != batch-2 {
		t.Fatalf("recovered to %d, want checkpoint %d (%v)", at, batch-2, err)
	}
	defer r.Close()
	got := exportAll(t, r, matchAll, migSince, 100)
	if len(got) != len(want) {
		t.Fatalf("recovered %d entries, checkpoint %d held %d", len(got), batch-2, len(want))
	}
	for i := range want {
		if got[i].Key != want[i].Key || got[i].Version != want[i].Version {
			t.Fatalf("recovered key %d v%d, checkpoint held key %d v%d", got[i].Key, got[i].Version, want[i].Key, want[i].Version)
		}
		same(fmt.Sprintf("recovered key %d", got[i].Key), got[i].Data, want[i].Data)
	}
}

// entryOf returns k's entry as of now: the hot entry itself, a copy of the
// cold slot in entry form (key, slot and versions only), or nil when k is
// absent. Caller holds the shard lock.
func (s *shard) entryOf(k uint64) *entry {
	pos, w := s.index.find(k)
	switch {
	case w == 0:
		return nil
	case w&tagHot != 0:
		return s.hot.at(w)
	}
	v := s.index.slots[pos].ver
	return &entry{key: k, slot: wordRef(w), persistedVersion: v, dataVersion: v, version: v}
}
