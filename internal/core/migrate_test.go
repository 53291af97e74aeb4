package core

import (
	"errors"
	"math"
	"testing"

	"openembedding/internal/psengine"
)

// Engine-level contracts behind live resharding (migrate.go): export is a
// paged, since-filtered, key-ordered read; adopt is durable the moment it
// returns and idempotent on replay; drop erases moved keys so recovery
// cannot resurrect them on the old owner.

const migSince = int64(-1) << 62

func matchAll(uint64) bool   { return true }
func matchOdd(k uint64) bool { return k%2 == 1 }

// exportAll drains every page of an export into one slice.
func exportAll(t *testing.T, e *Engine, match func(uint64) bool, since int64, page int) []psengine.MigEntry {
	t.Helper()
	var out []psengine.MigEntry
	from := uint64(0)
	for {
		ents, more, err := e.ExportRange(match, since, from, page)
		if err != nil {
			t.Fatalf("export: %v", err)
		}
		out = append(out, ents...)
		if len(ents) > 0 {
			from = ents[len(ents)-1].Key + 1
		}
		if !more {
			return out
		}
	}
}

func seedKeys(n int) []uint64 {
	keys := make([]uint64, n)
	for i := range keys {
		keys[i] = uint64(i + 1)
	}
	return keys
}

// TestExportRangePaging: exports come back in ascending key order, the
// cursor pages through without gaps or repeats, the match predicate and the
// since filter both narrow the set, and versions carry the batch of the
// entry's last push.
func TestExportRangePaging(t *testing.T) {
	e := newTestEngine(t, testConfig(4, 100, 50))
	keys := seedKeys(20)
	runBatch(t, e, 0, keys, constGrads(len(keys), 4, 1.0))
	// Touch a subset again at batch 1 so dataVersions differ.
	hot := keys[:5]
	runBatch(t, e, 1, hot, constGrads(len(hot), 4, 1.0))

	all := exportAll(t, e, matchAll, migSince, 3)
	if len(all) != len(keys) {
		t.Fatalf("exported %d entries, want %d", len(all), len(keys))
	}
	for i, me := range all {
		if me.Key != keys[i] {
			t.Fatalf("page order broken: entry %d is key %d, want %d", i, me.Key, keys[i])
		}
		want := int64(0)
		if me.Key <= uint64(len(hot)) {
			want = 1
		}
		if me.Version != want {
			t.Fatalf("key %d exported at version %d, want %d", me.Key, me.Version, want)
		}
		if len(me.Data) != e.cfg.EntryFloats() {
			t.Fatalf("key %d payload %d floats, want %d", me.Key, len(me.Data), e.cfg.EntryFloats())
		}
	}

	odd := exportAll(t, e, matchOdd, migSince, 3)
	for _, me := range odd {
		if me.Key%2 != 1 {
			t.Fatalf("match filter leaked key %d", me.Key)
		}
	}
	if want := len(keys) / 2; len(odd) != want {
		t.Fatalf("odd export = %d entries, want %d", len(odd), want)
	}

	// A delta round: only the batch-1 pushes qualify.
	delta := exportAll(t, e, matchAll, 1, 3)
	if len(delta) != len(hot) {
		t.Fatalf("since=1 export = %d entries, want %d", len(delta), len(hot))
	}

	if _, _, err := e.ExportRange(matchAll, migSince, 0, 0); err == nil {
		t.Fatal("non-positive page size accepted")
	}
}

// TestExportRangeEndKeys: the cursor is the next key to consider, so key 0
// comes back on the first page and key math.MaxUint64 ends the range, one
// key per page.
func TestExportRangeEndKeys(t *testing.T) {
	e := newTestEngine(t, testConfig(4, 100, 50))
	keys := []uint64{0, 1, 2, math.MaxUint64}
	runBatch(t, e, 0, keys, constGrads(len(keys), 4, 1.0))

	from := uint64(0)
	for i, want := range keys {
		ents, more, err := e.ExportRange(matchAll, migSince, from, 1)
		if err != nil {
			t.Fatal(err)
		}
		if len(ents) != 1 || ents[0].Key != want {
			t.Fatalf("page %d from key %d = %v, want key %d", i, from, ents, want)
		}
		if last := i == len(keys)-1; more == last {
			t.Fatalf("page %d (key %d): more = %v, want %v", i, want, more, !last)
		}
		from = want + 1
	}
}

// TestAdoptEntriesRoundTrip: export from a source, adopt into an empty
// target, and the target serves bit-identical state; re-adopting the same
// page is a no-op replay (idempotence), and adopt overwrites newer local
// state with the carried image.
func TestAdoptEntriesRoundTrip(t *testing.T) {
	src := newTestEngine(t, testConfig(4, 100, 50))
	keys := seedKeys(12)
	runBatch(t, src, 0, keys, constGrads(len(keys), 4, 0.5))
	ents := exportAll(t, src, matchAll, migSince, 5)

	dst := newTestEngine(t, testConfig(4, 100, 50))
	if err := dst.AdoptEntries(ents); err != nil {
		t.Fatalf("adopt: %v", err)
	}
	if got := dst.Stats().Entries; got != int64(len(keys)) {
		t.Fatalf("adopt created %d entries, want %d", got, len(keys))
	}

	// Replay the same page: same entry count (idempotent), same state.
	// (Counts are checked before pullAll below — Pull initializes the keys
	// it probes, inflating the count.)
	if err := dst.AdoptEntries(ents); err != nil {
		t.Fatalf("re-adopt: %v", err)
	}
	if got := dst.Stats().Entries; got != int64(len(keys)) {
		t.Fatalf("re-adopt changed entry count to %d, want %d", got, len(keys))
	}
	srcState := pullAll(t, src, 4)
	compareStates(t, "after re-adopt", srcState, pullAll(t, dst, 4))

	// Diverge the target, then adopt again: the carried image wins.
	runBatch(t, dst, 5, keys, constGrads(len(keys), 4, 2.0))
	if err := dst.AdoptEntries(ents); err != nil {
		t.Fatalf("overwrite adopt: %v", err)
	}
	compareStates(t, "after overwrite", srcState, pullAll(t, dst, 4))

	// A malformed payload is rejected before any mutation.
	bad := []psengine.MigEntry{{Key: 99, Version: 0, Data: make([]float32, 3)}}
	if err := dst.AdoptEntries(bad); err == nil {
		t.Fatal("short payload adopted")
	}
}

// TestAdoptEntriesCapacity: adopting past Capacity fails with ErrCapacity
// and does not leak entry accounting.
func TestAdoptEntriesCapacity(t *testing.T) {
	e := newTestEngine(t, testConfig(4, 8, 4))
	floats := e.cfg.EntryFloats()
	var ents []psengine.MigEntry
	for i := 0; i < 12; i++ {
		ents = append(ents, psengine.MigEntry{Key: uint64(i + 1), Data: make([]float32, floats)})
	}
	err := e.AdoptEntries(ents)
	if !errors.Is(err, psengine.ErrCapacity) {
		t.Fatalf("adopt past capacity: %v, want ErrCapacity", err)
	}
	if got := e.Stats().Entries; got > 8 {
		t.Fatalf("entry accounting leaked past capacity: %d", got)
	}
}

// TestAdoptDurableWithoutSeal is the crash-matrix fact the migration
// protocol leans on: entries adopted at versions at or below the target's
// committed checkpoint survive a crash WITHOUT any further checkpoint —
// AdoptEntries flushed them durably before returning. (On a fresh target
// with no checkpoint at all, recovery sheds them — which is exactly why the
// coordinator verifies the copy before sealing.)
func TestAdoptDurableWithoutSeal(t *testing.T) {
	cfg := testConfig(4, 100, 50).WithDefaults()
	src := newTestEngine(t, cfg)
	keys := seedKeys(10)
	runBatch(t, src, 0, keys, constGrads(len(keys), 4, 0.5))
	ents := exportAll(t, src, matchAll, migSince, 5)

	// Target has its own history and a committed checkpoint at batch 2;
	// the adopted entries carry version 0 <= 2.
	dst := newTestEngine(t, cfg)
	runBatch(t, dst, 0, []uint64{100}, constGrads(1, 4, 1.0))
	runBatch(t, dst, 1, []uint64{100}, nil)
	runBatch(t, dst, 2, []uint64{100}, nil)
	commitCheckpoint(t, dst, 2)
	if err := dst.AdoptEntries(ents); err != nil {
		t.Fatalf("adopt: %v", err)
	}
	want := pullAll(t, dst, 4)

	dev := dst.Arena().Device()
	dst.Close()
	dev.Crash()
	rec, ckpt, err := Recover(cfg, dev)
	if err != nil {
		t.Fatalf("recover: %v", err)
	}
	defer rec.Close()
	if ckpt != 2 {
		t.Fatalf("recovered to %d, want 2", ckpt)
	}
	compareStates(t, "adopted entries after crash", want, pullAll(t, rec, 4))

	// The fresh-target shedding half: no checkpoint ever committed means
	// recovery discards everything newer than -1, adopted entries included.
	fresh := newTestEngine(t, cfg)
	if err := fresh.AdoptEntries(ents); err != nil {
		t.Fatalf("adopt on fresh: %v", err)
	}
	fdev := fresh.Arena().Device()
	fresh.Close()
	fdev.Crash()
	frec, fckpt, err := Recover(cfg, fdev)
	if err != nil {
		t.Fatalf("recover fresh: %v", err)
	}
	defer frec.Close()
	if fckpt != -1 {
		t.Fatalf("fresh target recovered to %d, want -1", fckpt)
	}
	if got := frec.Stats().Entries; got != 0 {
		t.Fatalf("fresh target kept %d adopted entries across a crash; the protocol must verify before sealing", got)
	}
}

// TestAdoptDuringCheckpoint: overwriting entries the active checkpoint has
// counted (ckptPending) persists their pre-adopt state first, so the
// checkpoint still completes with exact accounting.
func TestAdoptDuringCheckpoint(t *testing.T) {
	cfg := testConfig(4, 100, 2) // tiny cache: entries live in PMem, ckptPending set on push
	e := newTestEngine(t, cfg)
	keys := seedKeys(8)
	runBatch(t, e, 0, keys, constGrads(len(keys), 4, 1.0))
	runBatch(t, e, 1, keys, constGrads(len(keys), 4, 1.0))
	if err := e.RequestCheckpoint(1); err != nil {
		t.Fatal(err)
	}
	// Mid-checkpoint, adopt an overwrite of every key at version 1.
	var ents []psengine.MigEntry
	for _, k := range keys {
		data := make([]float32, cfg.EntryFloats())
		for i := range data {
			data[i] = float32(k)
		}
		ents = append(ents, psengine.MigEntry{Key: k, Version: 1, Data: data})
	}
	if err := e.AdoptEntries(ents); err != nil {
		t.Fatalf("adopt during checkpoint: %v", err)
	}
	if err := e.WaitCheckpoints(); err != nil {
		t.Fatal(err)
	}
	if e.CompletedCheckpoint() < 1 {
		t.Fatal("checkpoint never completed after mid-checkpoint adopt")
	}
}

// TestDropRangeErasesDurably: dropping a range removes the entries from
// the index AND from the device — a crash-recovery after the drop cannot
// resurrect moved keys on the old owner.
func TestDropRangeErasesDurably(t *testing.T) {
	cfg := testConfig(4, 100, 50).WithDefaults()
	e := newTestEngine(t, cfg)
	keys := seedKeys(16)
	runBatch(t, e, 0, keys, constGrads(len(keys), 4, 0.5))
	runBatch(t, e, 1, keys, constGrads(len(keys), 4, 0.5))
	commitCheckpoint(t, e, 1)

	dropped, err := e.DropRange(matchOdd)
	if err != nil {
		t.Fatalf("drop: %v", err)
	}
	if want := len(keys) / 2; dropped != want {
		t.Fatalf("dropped %d entries, want %d", dropped, want)
	}
	if got := e.Stats().Entries; got != int64(len(keys)-dropped) {
		t.Fatalf("entries after drop = %d, want %d", got, len(keys)-dropped)
	}
	for _, me := range exportAll(t, e, matchAll, migSince, 5) {
		if me.Key%2 == 1 {
			t.Fatalf("dropped key %d still exported", me.Key)
		}
	}
	// Idempotent: a replayed drop finds nothing.
	again, err := e.DropRange(matchOdd)
	if err != nil || again != 0 {
		t.Fatalf("replayed drop = (%d, %v), want (0, nil)", again, err)
	}

	dev := e.Arena().Device()
	e.Close()
	dev.Crash()
	rec, _, err := Recover(cfg, dev)
	if err != nil {
		t.Fatalf("recover: %v", err)
	}
	defer rec.Close()
	for _, me := range exportAll(t, rec, matchAll, migSince, 5) {
		if me.Key%2 == 1 {
			t.Fatalf("recovery resurrected dropped key %d", me.Key)
		}
	}
	if got := rec.Stats().Entries; got != int64(len(keys)-dropped) {
		t.Fatalf("recovered entries = %d, want %d", got, len(keys)-dropped)
	}
}
