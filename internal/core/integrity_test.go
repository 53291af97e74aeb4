package core

import (
	"errors"
	"testing"

	"openembedding/internal/pmem"
	"openembedding/internal/psengine"
)

// corruptSlot flips one payload bit of slot's record in the volatile image
// only (no flush): the durable copy keeps the original bytes, modelling
// bit-rot discovered by a load rather than by recovery. A single flipped
// bit is within CRC32C correction range, so the scrubber heals it in place.
func corruptSlot(t *testing.T, a *pmem.Arena, slot uint32) {
	t.Helper()
	flipPayloadBit(t, a, slot, 0)
}

// smashSlot flips one bit in each of three payload bytes — damage beyond
// single-bit correction (and, record lengths being far inside CRC32C's
// minimum-distance-4 bound, damage that can never masquerade as a
// correctable single-bit error), forcing the scrubber onto its lossier
// heals.
func smashSlot(t *testing.T, a *pmem.Arena, slot uint32) {
	t.Helper()
	for i := 0; i < 3; i++ {
		flipPayloadBit(t, a, slot, i)
	}
}

func flipPayloadBit(t *testing.T, a *pmem.Arena, slot uint32, byteIdx int) {
	t.Helper()
	off := a.SlotOffset(slot) + 24 + byteIdx // payload starts after the 24-byte slot header
	var b [1]byte
	dev := a.Device()
	if err := dev.Read(off, b[:]); err != nil {
		t.Fatal(err)
	}
	b[0] ^= 0x40
	if err := dev.Write(off, b[:]); err != nil {
		t.Fatal(err)
	}
}

// entrySnapshot reads (slot, inDRAM, present) for key under the shard lock.
func entrySnapshot(e *Engine, key uint64) (slot uint32, inDRAM, present bool) {
	s := e.shardFor(key)
	s.mu.RLock()
	defer s.mu.RUnlock()
	ent := s.entryOf(key)
	if ent == nil {
		return noSlot, false, false
	}
	return ent.slot, ent.inDRAM(), true
}

// persistedEvicted returns a key from keys whose entry is persisted in PMem
// and no longer DRAM-cached.
func persistedEvicted(t *testing.T, e *Engine, keys []uint64) (uint64, uint32) {
	t.Helper()
	for _, k := range keys {
		slot, inDRAM, present := entrySnapshot(e, k)
		if present && !inDRAM && slot != noSlot {
			return k, slot
		}
	}
	t.Fatal("no evicted persisted entry found")
	return 0, 0
}

// TestPullDetectsCorruptionBeforeServing pins the acceptance criterion of
// DESIGN.md §11: corruption injected into a record that a Pull must serve
// from PMem is detected by the checksum BEFORE the value reaches the
// response — the caller gets a typed error, never silent garbage.
func TestPullDetectsCorruptionBeforeServing(t *testing.T) {
	e := newTestEngine(t, testConfig(4, 100, 2))
	keys := []uint64{1, 2, 3, 4, 5, 6}
	runBatch(t, e, 0, keys, constGrads(6, 4, 1))
	runBatch(t, e, 1, []uint64{1, 2}, nil) // maintenance trims the cache to 2
	k, slot := persistedEvicted(t, e, keys)
	corruptSlot(t, e.Arena(), slot)
	dst := make([]float32, 4)
	err := e.Pull(2, []uint64{k}, dst)
	if err == nil {
		t.Fatalf("pull served corrupt record of key %d as %v", k, dst)
	}
	if !errors.Is(err, pmem.ErrCorrupt) {
		t.Fatalf("want ErrCorrupt, got %v", err)
	}
}

// TestScrubRepairsFromDRAMCopy: an uncorrectably corrupt record whose
// entry is still DRAM-cached and clean is healed transparently by
// re-persisting the cached state — the rewrite lands at the same version,
// so checkpoint coverage is preserved and no fence is needed.
func TestScrubRepairsFromDRAMCopy(t *testing.T) {
	e := newTestEngine(t, testConfig(4, 100, 50))
	keys := []uint64{1, 2, 3}
	runBatch(t, e, 0, keys, constGrads(3, 4, 0.5))
	commitCheckpoint(t, e, 0) // persists all three while they stay cached
	want := runBatch(t, e, 1, keys, nil)

	slot, inDRAM, present := entrySnapshot(e, 2)
	if !present || !inDRAM || slot == noSlot {
		t.Fatalf("precondition: key 2 must be cached and persisted (slot %d, inDRAM %v)", slot, inDRAM)
	}
	smashSlot(t, e.Arena(), slot)

	rep, err := e.Scrub()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Scanned < 3 || rep.Corrupt != 1 || rep.Repaired != 1 || rep.Restored != 0 || rep.Fenced != 0 {
		t.Fatalf("scrub report %+v, want 1 corrupt repaired of >=3 scanned", rep)
	}
	// The re-persisted record verifies, and the served state is unchanged.
	if rep2, err := e.Scrub(); err != nil || rep2.Corrupt != 0 {
		t.Fatalf("second scrub still finds corruption: %+v, %v", rep2, err)
	}
	got := runBatch(t, e, 2, keys, nil)
	for i := range want {
		if want[i] != got[i] {
			t.Fatalf("weights changed across repair: %v vs %v", want, got)
		}
	}
}

// TestScrubRestoresFromRetainedCheckpoint: a corrupt record with no DRAM
// copy rolls back onto the newest retained record at or below the completed
// checkpoint — the state a crash-recovery would also land on.
func TestScrubRestoresFromRetainedCheckpoint(t *testing.T) {
	e := newTestEngine(t, rollbackTestConfig())
	const k = 1
	runBatch(t, e, 0, []uint64{k}, constGrads(1, 4, 1))
	commitCheckpoint(t, e, 0)
	want := runBatch(t, e, 1, []uint64{k}, nil) // checkpoint-covered state
	runBatch(t, e, 2, []uint64{k}, constGrads(1, 4, 2))
	// Six fresh keys overflow the 6-entry cache and evict k, flushing its
	// post-batch-2 state; the checkpoint-0 record is retained (not reclaimed:
	// checkpoint 0 still needs it).
	runBatch(t, e, 3, []uint64{10, 11, 12, 13, 14, 15}, constGrads(6, 4, 1))

	slot, inDRAM, present := entrySnapshot(e, k)
	if !present || inDRAM || slot == noSlot {
		t.Fatalf("precondition: key %d must be evicted and persisted (slot %d, inDRAM %v)", k, slot, inDRAM)
	}
	smashSlot(t, e.Arena(), slot)

	rep, err := e.Scrub()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Corrupt != 1 || rep.Restored != 1 || rep.Repaired != 0 || rep.Fenced != 0 {
		t.Fatalf("scrub report %+v, want 1 corrupt restored", rep)
	}
	got := runBatch(t, e, 4, []uint64{k}, nil)
	for i := range want {
		if want[i] != got[i] {
			t.Fatalf("restored state %v, want checkpoint state %v (bit-exact)", got, want)
		}
	}
}

// TestScrubFencesUnrecoverableKey: a corrupt record with no DRAM copy and
// no retained checkpoint-covered record is fenced — the key is dropped and
// reborn from its deterministic initializer on first touch.
func TestScrubFencesUnrecoverableKey(t *testing.T) {
	e := newTestEngine(t, testConfig(4, 100, 50))
	keys := []uint64{1, 2, 3, 4, 5, 6}
	runBatch(t, e, 0, keys, constGrads(6, 4, 1))
	// 50 fresh keys overflow the cache: keys 1..6 are evicted and their
	// post-push state flushed, retiring their init-valued records. The
	// checkpoint at batch 1 then reclaims those retired records, so each key
	// has exactly one persisted record left.
	fill := make([]uint64, 50)
	for i := range fill {
		fill[i] = 100 + uint64(i)
	}
	runBatch(t, e, 1, fill, constGrads(50, 4, 1))
	commitCheckpoint(t, e, 1)

	k, slot := persistedEvicted(t, e, keys)
	smashSlot(t, e.Arena(), slot)

	rep, err := e.Scrub()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Corrupt != 1 || rep.Fenced != 1 || rep.Repaired != 0 || rep.Restored != 0 {
		t.Fatalf("scrub report %+v, want 1 corrupt fenced", rep)
	}
	if _, _, present := entrySnapshot(e, k); present {
		t.Fatalf("fenced key %d still indexed", k)
	}
	// Reborn bit-identical to a fresh engine's first touch of the same key.
	got := make([]float32, 4)
	if err := e.Pull(2, []uint64{k}, got); err != nil {
		t.Fatal(err)
	}
	fresh := newTestEngine(t, testConfig(4, 100, 50))
	want := make([]float32, 4)
	if err := fresh.Pull(0, []uint64{k}, want); err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if want[i] != got[i] {
			t.Fatalf("reborn key %d = %v, want deterministic init %v", k, got, want)
		}
	}
}

// TestRecoverFallsBackWhenCurrentHeaderCorrupt: with the durable
// current-checkpoint word corrupt, plain recovery adopts the retained
// previous checkpoint, reports the fallback, repairs the header words, and
// lands bit-identical to a run that simply stopped at that checkpoint.
func TestRecoverFallsBackWhenCurrentHeaderCorrupt(t *testing.T) {
	cfg := rollbackTestConfig()
	script := rollbackScript(6)
	const c1, c2 = 2, 4

	// Reference: a run stopped at c1, crashed and recovered.
	engB := newTestEngine(t, cfg)
	for b := 0; b <= c1; b++ {
		runBatch(t, engB, int64(b), script[b].keys, script[b].grads)
	}
	commitCheckpoint(t, engB, c1)
	devB := engB.Arena().Device()
	engB.Close()
	devB.Crash()
	recB, ckpt, err := Recover(cfg, devB)
	if err != nil {
		t.Fatal(err)
	}
	defer recB.Close()
	if ckpt != c1 {
		t.Fatalf("reference recovered to %d, want %d", ckpt, c1)
	}
	refState := pullAll(t, recB, cfg.Dim)

	// Full run retaining c1 behind c2; the cur header word rots.
	engC := newTestEngine(t, cfg)
	for b, s := range script {
		runBatch(t, engC, int64(b), s.keys, s.grads)
		if b == c1 || b == c2 {
			commitCheckpoint(t, engC, int64(b))
		}
	}
	dev := engC.Arena().Device()
	engC.Close()
	dev.Crash()
	zero := make([]byte, 8)
	if err := dev.Write(16, zero); err != nil { // offCkptID: cur header word
		t.Fatal(err)
	}
	if err := dev.Flush(16, 8); err != nil {
		t.Fatal(err)
	}

	rec, got, err := Recover(cfg, dev)
	if err != nil {
		t.Fatalf("recover with corrupt cur word: %v", err)
	}
	defer rec.Close()
	if got != c1 {
		t.Fatalf("recovered to %d, want fallback to %d", got, c1)
	}
	info := rec.RecoverInfo()
	if !info.FellBack || !info.CurCorrupt || info.PrevCorrupt || info.Target != c1 {
		t.Fatalf("RecoverInfo %+v, want fallback to %d with cur corrupt", info, c1)
	}
	// The rewrite durably adopted the fallback: cur == c1, prev cleared.
	if cur, err := rec.Arena().CheckpointedBatch(); err != nil || cur != c1 {
		t.Fatalf("durable cur after fallback = %d, %v; want %d", cur, err, c1)
	}
	if prev, err := rec.Arena().PrevCheckpointedBatch(); err != nil || prev != -1 {
		t.Fatalf("durable prev after fallback = %d, %v; want -1", prev, err)
	}
	compareStates(t, "fallback recovery", refState, pullAll(t, rec, cfg.Dim))
}

// TestRecoverToFailsTypedOnCorruptPrev: an explicit rollback to the
// previous checkpoint whose header word is corrupt fails with a typed
// error; plain recovery to the intact current checkpoint proceeds,
// records PrevCorrupt, and repairs the bad word.
func TestRecoverToFailsTypedOnCorruptPrev(t *testing.T) {
	cfg := rollbackTestConfig()
	script := rollbackScript(6)
	const c1, c2 = 2, 4

	eng := newTestEngine(t, cfg)
	for b, s := range script {
		runBatch(t, eng, int64(b), s.keys, s.grads)
		if b == c1 || b == c2 {
			commitCheckpoint(t, eng, int64(b))
		}
	}
	dev := eng.Arena().Device()
	eng.Close()
	dev.Crash()
	zero := make([]byte, 8)
	if err := dev.Write(24, zero); err != nil { // offPrevCkptID: prev header word
		t.Fatal(err)
	}
	if err := dev.Flush(24, 8); err != nil {
		t.Fatal(err)
	}

	if _, _, err := RecoverTo(cfg, dev, c1); err == nil {
		t.Fatal("RecoverTo a checkpoint whose header word is corrupt succeeded")
	} else if !errors.Is(err, pmem.ErrCorrupt) {
		t.Fatalf("RecoverTo corrupt prev: want ErrCorrupt, got %v", err)
	}

	rec, got, err := Recover(cfg, dev)
	if err != nil {
		t.Fatal(err)
	}
	defer rec.Close()
	if got != c2 {
		t.Fatalf("recovered to %d, want %d", got, c2)
	}
	info := rec.RecoverInfo()
	if info.FellBack || info.CurCorrupt || !info.PrevCorrupt {
		t.Fatalf("RecoverInfo %+v, want prev corrupt only", info)
	}
	// The bad word was rewritten: prev reads back valid (-1).
	if prev, err := rec.Arena().PrevCheckpointedBatch(); err != nil || prev != -1 {
		t.Fatalf("durable prev after repair = %d, %v; want -1", prev, err)
	}
}

// TestRecoverNoUsableCheckpoint: with only one checkpoint retained and its
// header word corrupt, recovery fails typed instead of inventing state.
func TestRecoverNoUsableCheckpoint(t *testing.T) {
	cfg := testConfig(4, 100, 50) // RetainCheckpoints defaults to 1
	e := newTestEngine(t, cfg)
	runBatch(t, e, 0, []uint64{1, 2, 3}, constGrads(3, 4, 1))
	commitCheckpoint(t, e, 0)
	dev := e.Arena().Device()
	e.Close()
	dev.Crash()
	zero := make([]byte, 8)
	if err := dev.Write(16, zero); err != nil {
		t.Fatal(err)
	}
	if err := dev.Flush(16, 8); err != nil {
		t.Fatal(err)
	}
	if _, _, err := Recover(cfg, dev); err == nil {
		t.Fatal("recover with no usable checkpoint succeeded")
	} else if !errors.Is(err, pmem.ErrCorrupt) {
		t.Fatalf("want ErrCorrupt, got %v", err)
	}
}

// TestScrubCorrectsSingleBitRot: a single flipped bit in a record with NO
// DRAM copy — where every other heal would regress state — is corrected in
// place from the CRC32C syndrome: same slot, same version, served state
// unchanged, no loss counted.
func TestScrubCorrectsSingleBitRot(t *testing.T) {
	e := newTestEngine(t, rollbackTestConfig())
	const k = 1
	runBatch(t, e, 0, []uint64{k}, constGrads(1, 4, 1))
	commitCheckpoint(t, e, 0)
	runBatch(t, e, 1, []uint64{k}, constGrads(1, 4, 2))
	// Six fresh keys overflow the 6-entry cache and evict k, flushing its
	// post-batch-1 state.
	runBatch(t, e, 2, []uint64{10, 11, 12, 13, 14, 15}, constGrads(6, 4, 1))

	slot, inDRAM, present := entrySnapshot(e, k)
	if !present || inDRAM || slot == noSlot {
		t.Fatalf("precondition: key %d must be evicted and persisted (slot %d, inDRAM %v)", k, slot, inDRAM)
	}
	want := make([]float32, 4)
	if err := e.Pull(3, []uint64{k}, want); err != nil {
		t.Fatal(err)
	}
	corruptSlot(t, e.Arena(), slot)
	if err := e.Pull(3, []uint64{k}, make([]float32, 4)); !errors.Is(err, pmem.ErrCorrupt) {
		t.Fatalf("corrupt record served: %v", err)
	}

	rep, err := e.Scrub()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Corrupt != 1 || rep.Repaired != 1 || rep.Restored != 0 || rep.Fenced != 0 || rep.Quarantined != 0 {
		t.Fatalf("scrub report %+v, want 1 corrupt corrected in place", rep)
	}
	if after, _, _ := entrySnapshot(e, k); after != slot {
		t.Fatalf("correction moved the record: slot %d -> %d", slot, after)
	}
	got := make([]float32, 4)
	if err := e.Pull(3, []uint64{k}, got); err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if want[i] != got[i] {
			t.Fatalf("corrected state %v, want %v (bit-exact)", got, want)
		}
	}
	if rep2, err := e.Scrub(); err != nil || rep2.Corrupt != 0 {
		t.Fatalf("second scrub still finds corruption: %+v, %v", rep2, err)
	}
}

// TestScrubDirtyEntryLosingCheckpointCopyCountsRestored: when the
// uncorrectably corrupt record was a dirty entry's only durable copy at or
// below the completed checkpoint, the DRAM rewrite (which lands at the
// newer data version) abandons that checkpoint's coverage of the key — the
// heal keeps the served state intact but must be reported as a restore so
// the node fences its epoch instead of letting a later rollback silently
// diverge.
func TestScrubDirtyEntryLosingCheckpointCopyCountsRestored(t *testing.T) {
	e := newTestEngine(t, testConfig(4, 100, 50))
	keys := []uint64{1, 2, 3}
	runBatch(t, e, 0, keys, constGrads(3, 4, 0.5))
	commitCheckpoint(t, e, 0)                    // every key's v0 record is checkpoint state
	runBatch(t, e, 1, keys, constGrads(3, 4, 1)) // dirty again: dataVersion 1, persisted 0
	want := runBatch(t, e, 2, keys, nil)

	slot, inDRAM, present := entrySnapshot(e, 2)
	if !present || !inDRAM || slot == noSlot {
		t.Fatalf("precondition: key 2 must be cached and persisted (slot %d, inDRAM %v)", slot, inDRAM)
	}
	smashSlot(t, e.Arena(), slot)

	rep, err := e.Scrub()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Corrupt != 1 || rep.Restored != 1 || rep.Repaired != 0 || rep.Fenced != 0 {
		t.Fatalf("scrub report %+v, want 1 corrupt counted as restored (checkpoint coverage lost)", rep)
	}
	// The served state is untouched — the loss is to rollback coverage, not
	// to live training state.
	got := runBatch(t, e, 3, keys, nil)
	for i := range want {
		if want[i] != got[i] {
			t.Fatalf("weights changed across heal: %v vs %v", want, got)
		}
	}
	if rep2, err := e.Scrub(); err != nil || rep2.Corrupt != 0 {
		t.Fatalf("second scrub still finds corruption: %+v, %v", rep2, err)
	}
}

// TestScrubSeesKeysCreatedAfterSnapshot: the scrubber's cached sorted-key
// snapshot must be invalidated by index inserts — a key created (and
// persisted) after a full pass built the cache is still scanned by the
// next pass.
func TestScrubSeesKeysCreatedAfterSnapshot(t *testing.T) {
	e := newTestEngine(t, testConfig(4, 100, 50))
	runBatch(t, e, 0, []uint64{1, 2, 3}, constGrads(3, 4, 1))
	commitCheckpoint(t, e, 0)
	rep, err := e.Scrub() // builds the per-shard key snapshots
	if err != nil || rep.Scanned != 3 {
		t.Fatalf("first scrub: %+v, %v; want 3 scanned", rep, err)
	}

	runBatch(t, e, 1, []uint64{1, 2, 3, 4}, constGrads(4, 4, 1))
	commitCheckpoint(t, e, 1) // persists the new key 4
	slot, _, present := entrySnapshot(e, 4)
	if !present || slot == noSlot {
		t.Fatal("precondition: key 4 must be persisted")
	}
	corruptSlot(t, e.Arena(), slot)

	rep, err = e.Scrub()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Scanned != 4 || rep.Corrupt != 1 || rep.Repaired != 1 {
		t.Fatalf("scrub report %+v, want the post-snapshot key scanned and healed", rep)
	}
}

// TestScrubReportsClosed: scrubbing a closed engine fails with ErrClosed.
func TestScrubReportsClosed(t *testing.T) {
	e := newTestEngine(t, testConfig(4, 100, 50))
	e.Close()
	if _, err := e.Scrub(); !errors.Is(err, psengine.ErrClosed) {
		t.Fatalf("want ErrClosed, got %v", err)
	}
}
