package core

import (
	"errors"
	"fmt"
	"math"
	"runtime"
	"testing"
	"time"

	"openembedding/internal/device"
	"openembedding/internal/faultinject"
	"openembedding/internal/obs"
	"openembedding/internal/optim"
	"openembedding/internal/pmem"
	"openembedding/internal/psengine"
	"openembedding/internal/simclock"
)

// TestRetouchAfterEvictionInOneRound is the hazard deferring a round's
// flushes creates: with a cache smaller than the batch's working set, an
// entry can be evicted dirty and touched again inside one maintenance round
// (two loaders pull the same key). Its flush is then still queued — the
// entry's slot names the superseded record, or, as here for entries never
// persisted before, nothing at all — and the promotion must not read that
// slot. Rows and counters are pinned to the per-record engine's on the same
// stream (values taken at the parent commit).
func TestRetouchAfterEvictionInOneRound(t *testing.T) {
	for _, ckpt := range []bool{false, true} {
		t.Run(fmt.Sprintf("checkpoint=%v", ckpt), func(t *testing.T) {
			cfg := testConfig(2, 64, 2) // cache holds 2, the batch touches 6, twice
			e := newTestEngine(t, cfg)
			keys := []uint64{1, 2, 3, 4, 5, 6}
			dst := make([]float32, len(keys)*2)
			grads := constGrads(len(keys), 2, 1)
			for b := int64(0); b < 4; b++ {
				// Two loaders pull the same keys: every entry has two access
				// records in the round, and the two the cache kept from the
				// previous batch are dirty when the round evicts them.
				for l := 0; l < 2; l++ {
					if err := e.Pull(b, keys, dst); err != nil {
						t.Fatalf("pull batch %d: %v", b, err)
					}
				}
				e.EndPullPhase(b)
				if err := e.Push(b, keys, grads); err != nil {
					t.Fatalf("push batch %d: %v", b, err)
				}
				if err := e.EndBatch(b); err != nil {
					t.Fatalf("end batch %d: %v", b, err)
				}
				if ckpt && b == 1 {
					// Pending over the next round: its dirty entries are flushed
					// before their overwrite and then evicted, still queued.
					if err := e.RequestCheckpoint(b); err != nil {
						t.Fatal(err)
					}
				}
			}
			got := runBatch(t, e, 4, keys, nil)
			init := runBatchValues(t, cfg, keys)
			for i := range got {
				if want := init[i] - 4*0.1; math.Abs(float64(got[i]-want)) > 1e-5 {
					t.Fatalf("weight[%d] = %v after 4 pushes, want %v", i, got[i], want)
				}
			}
			st := e.Stats()
			want := map[bool]psengine.Stats{
				false: {Entries: 6, CachedEntries: 2, Hits: 26, Misses: 28, PMemReads: 64, PMemWrites: 30, Evictions: 68},
				true:  {Entries: 6, CachedEntries: 2, Hits: 26, Misses: 28, PMemReads: 64, PMemWrites: 30, Evictions: 68, CheckpointsDone: 1},
			}[ckpt]
			if st != want {
				t.Errorf("stats diverged from the per-record engine on this stream\n got %+v\nwant %+v", st, want)
			}
		})
	}
}

// TestStagedRowsOfTwoLoaders: two pulls of one batch both miss on the same
// PMem-resident keys and both stage a row; the round adopts one per entry,
// returns the other to the row pool, and the pushes land on the adopted
// rows.
func TestStagedRowsOfTwoLoaders(t *testing.T) {
	cfg := testConfig(4, 64, 8)
	cfg.Optimizer = optim.NewAdaGrad(0.1) // state rides in the staged row too
	e := newTestEngine(t, cfg)
	hot := []uint64{1, 2, 3, 4}
	cold := []uint64{11, 12, 13, 14, 15, 16, 17, 18}
	runBatch(t, e, 0, hot, constGrads(len(hot), 4, 1))
	runBatch(t, e, 1, cold, constGrads(len(cold), 4, 1)) // evicts the hot keys
	after1 := runBatch(t, e, 2, hot, nil)
	runBatch(t, e, 3, cold, nil) // and again: the hot keys are PMem-resident and clean

	dst := make([]float32, len(hot)*4)
	before := e.Stats()
	for l := 0; l < 2; l++ {
		if err := e.Pull(4, hot, dst); err != nil {
			t.Fatal(err)
		}
	}
	e.EndPullPhase(4)
	e.WaitMaintenance()
	st := e.Stats()
	if reads := st.PMemReads - before.PMemReads; reads != 2*int64(len(hot)) {
		t.Fatalf("PMemReads grew by %d, want %d: one per pulled miss, none for the promotions", reads, 2*len(hot))
	}
	s := e.shards[0]
	s.mu.RLock()
	for _, k := range hot {
		if ent := s.entryOf(k); !ent.inDRAM() || ent.wbPending {
			t.Fatalf("key %d not promoted cleanly", k)
		}
	}
	s.mu.RUnlock()
	if err := e.Push(4, hot, constGrads(len(hot), 4, 1)); err != nil {
		t.Fatal(err)
	}
	if err := e.EndBatch(4); err != nil {
		t.Fatal(err)
	}
	// A second AdaGrad step on accumulator 1+1: the step is lr/sqrt(2)-ish,
	// which only comes out if the optimizer state was promoted with the row.
	got := runBatch(t, e, 5, hot, nil)
	ref := newTestEngine(t, func() psengine.Config { c := testConfig(4, 64, 64); c.Optimizer = cfg.Optimizer; return c }())
	runBatch(t, ref, 0, hot, constGrads(len(hot), 4, 1))
	runBatch(t, ref, 1, hot, constGrads(len(hot), 4, 1))
	want := runBatch(t, ref, 2, hot, nil)
	for i := range got {
		if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
			t.Fatalf("weight[%d] = %v, an engine that never evicted says %v (after batch 2 it was %v)", i, got[i], want[i], after1[i])
		}
	}
}

// newFaultEngine builds a one-shard engine whose device arms inj before the
// engine is created, so every flush is verified (or not, per cfg).
func newFaultEngine(t *testing.T, cfg psengine.Config, slots int, inj *faultinject.Injector) (*Engine, *pmem.Device) {
	t.Helper()
	cfg = cfg.WithDefaults()
	payload := pmem.FloatBytes(cfg.EntryFloats())
	dev := pmem.NewDevice(pmem.ArenaLayout(payload, slots), device.NewTimedPMem(cfg.Meter))
	t.Cleanup(func() { dev.Close() })
	arena, err := pmem.NewArena(dev, payload, slots)
	if err != nil {
		t.Fatal(err)
	}
	if inj != nil {
		dev.SetMediaFaults(inj, "m")
	}
	e, err := New(cfg, arena)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { e.Close() })
	return e, dev
}

// TestCommitFailureLeavesEntriesConsistent stops a round's group commit at
// its k-th record (the media poisons every flush from there on, through all
// the retries and replacement slots) for each k, and checks what the commit
// promises: the error surfaces, every entry's slot names a record that reads
// back valid at the entry's persisted version — never an unflushed one — and
// the entries the commit did not reach are dirty and resident again, their
// rows intact.
func TestCommitFailureLeavesEntriesConsistent(t *testing.T) {
	const nkeys = 12
	keys := make([]uint64, nkeys)
	for i := range keys {
		keys[i] = uint64(i + 1)
	}
	for k := 0; k < nkeys-2; k++ {
		t.Run(fmt.Sprintf("fails-at=%d", k), func(t *testing.T) {
			cfg := testConfig(2, 64, 2)
			// Batch 0's round flushes nothing (every entry is born in DRAM and
			// the cache is enforced at EndBatch); EndBatch(0) evicts nkeys-2
			// dirty entries in one commit, which is the one that fails.
			inj := faultinject.New(3, faultinject.Rule{
				Point: faultinject.PointPMemFlush, Kind: faultinject.KindPoison, Prob: 1, From: uint64(k) + 1,
			})
			e, dev := newFaultEngine(t, cfg, 256, inj)
			dst := make([]float32, nkeys*2)
			if err := e.Pull(0, keys, dst); err != nil {
				t.Fatal(err)
			}
			e.EndPullPhase(0)
			if err := e.Push(0, keys, constGrads(nkeys, 2, 1)); err != nil {
				t.Fatal(err)
			}
			err := e.EndBatch(0)
			if !errors.Is(err, errMaintenance) || !errors.Is(err, pmem.ErrPoisoned) {
				t.Fatalf("EndBatch = %v, want a maintenance error wrapping the poison", err)
			}
			dev.SetMediaFaults(nil, "")
			init := runBatchValues(t, cfg, keys)
			s := e.shards[0]
			s.mu.RLock()
			defer s.mu.RUnlock()
			if len(s.wb) != 0 || s.evicted != 0 {
				t.Fatalf("write-back list not settled: %d queued, %d evictions unbooked", len(s.wb), s.evicted)
			}
			persisted := 0
			for i, key := range keys {
				ent := s.entryOf(key)
				if ent.wbPending {
					t.Fatalf("key %d still has a write-back pending", key)
				}
				if ent.slot != noSlot {
					persisted++
					rec, err := e.arena.ReadRecord(ent.slot)
					if err != nil || rec.Key != key || rec.Version != ent.persistedVersion {
						t.Fatalf("key %d: slot %d does not hold its record at version %d: %+v, %v", key, ent.slot, ent.persistedVersion, rec, err)
					}
				}
				if !ent.inDRAM() {
					if ent.slot == noSlot || ent.dirty {
						t.Fatalf("key %d has neither a DRAM row nor a durable record", key)
					}
					continue
				}
				for d := 0; d < 2; d++ {
					if want := init[i*2+d] - 0.1; math.Abs(float64(ent.buf[d]-want)) > 1e-6 {
						t.Fatalf("key %d row[%d] = %v, want %v", key, d, ent.buf[d], want)
					}
				}
				if ent.slot == noSlot && (!ent.dirty || !ent.node.InList()) {
					t.Fatalf("key %d was not committed but is not dirty and cached either", key)
				}
			}
			if persisted != k {
				t.Fatalf("%d entries have records, want the %d written before the failure", persisted, k)
			}
		})
	}
}

// TestCrashAfterEveryCommitPrefix cuts the power after every prefix of a
// round's record flushes (the flushes past the prefix never reach the
// media) and recovers: the state is the completed checkpoint's, whichever
// prefix of the round got out. A superseded record reclaimed and
// overwritten before its replacement was durable would show here as a
// checkpoint row gone or changed.
func TestCrashAfterEveryCommitPrefix(t *testing.T) {
	cfg := testConfig(2, 64, 4)
	cfg.Optimizer = optim.NewAdaGrad(0.1)
	// The dropped flushes are the power cut, not a failing medium: the
	// write site must not prove and redo them.
	cfg.FlushVerifyDisabled = true
	keysOf := func(b int64) []uint64 {
		keys := make([]uint64, 10)
		for i := range keys {
			keys[i] = 1 + uint64((int(b)*7+i*3)%24)
		}
		return keys
	}
	// run drives the stream on a tight arena (reclaim has to keep up) and
	// returns the engine after batch `last`; from batch cut on, flushes past
	// the first `prefix` are dropped.
	run := func(t *testing.T, last, cut int64, prefix int) (*Engine, *pmem.Device) {
		e, dev := newFaultEngine(t, cfg, 64, nil)
		for b := int64(0); b <= last; b++ {
			if b == cut {
				dev.SetMediaFaults(faultinject.New(1, faultinject.Rule{
					Point: faultinject.PointPMemFlush, Kind: faultinject.KindDrop, Prob: 1, From: uint64(prefix) + 1,
				}), "m")
			}
			keys := keysOf(b)
			runBatch(t, e, b, keys, constGrads(len(keys), 2, float32(b%3)+1))
			if b == 5 {
				commitCheckpoint(t, e, b)
			}
		}
		return e, dev
	}
	state := func(t *testing.T, dev *pmem.Device) map[uint64][]float32 {
		dev.SetMediaFaults(nil, "")
		dev.Crash()
		rcfg := cfg
		rcfg.Meter = simclock.NewMeter()
		r, at, err := Recover(rcfg, dev)
		if err != nil {
			t.Fatal(err)
		}
		defer r.Close()
		if at != 5 {
			t.Fatalf("recovered to checkpoint %d, want 5", at)
		}
		rows, _, err := r.ExportRange(func(uint64) bool { return true }, math.MinInt64, 0, 1000)
		if err != nil {
			t.Fatal(err)
		}
		out := map[uint64][]float32{}
		for _, me := range rows {
			out[me.Key] = me.Data
		}
		return out
	}
	_, dev := run(t, 5, -1, 0)
	want := state(t, dev)
	if len(want) == 0 {
		t.Fatal("checkpoint 5 holds nothing")
	}
	for prefix := 0; prefix <= 24; prefix++ {
		// Batches 6 and 7 after the checkpoint: their rounds evict and
		// supersede checkpointed records; only `prefix` of those flushes
		// reach the media before the power goes.
		_, dev := run(t, 7, 6, prefix)
		got := state(t, dev)
		if len(got) != len(want) {
			t.Fatalf("prefix %d: recovered %d keys, want %d", prefix, len(got), len(want))
		}
		for k, row := range want {
			for i := range row {
				if math.Float32bits(got[k][i]) != math.Float32bits(row[i]) {
					t.Fatalf("prefix %d: key %d float %d = %v, checkpoint 5 held %v", prefix, k, i, got[k][i], row[i])
				}
			}
		}
	}
}

// TestFlushVerifyFollowsArming arms a media fault on the device of an
// engine that trained a batch unarmed: the engine asks the device at each
// commit, so the first commit after arming — the checkpoint's record
// flush — already proves itself against the durable image, finds the
// flush dropped and redoes it. The checkpointed row then survives a power
// cut.
func TestFlushVerifyFollowsArming(t *testing.T) {
	cfg := testConfig(2, 64, 4)
	e, dev := newFaultEngine(t, cfg, 64, nil)
	keys := []uint64{1}
	runBatch(t, e, 0, keys, constGrads(1, 2, 1))
	inj := faultinject.New(1, faultinject.Rule{Point: faultinject.PointPMemFlush, Kind: faultinject.KindDrop, Nth: 1})
	dev.SetMediaFaults(inj, "m")
	commitCheckpoint(t, e, 0)
	if got := inj.Counts()[faultinject.KindDrop]; got != 1 {
		t.Fatalf("dropped flushes = %d, want 1", got)
	}
	e.Close()
	dev.Crash()
	rcfg := cfg
	rcfg.Meter = simclock.NewMeter()
	r, at, err := Recover(rcfg, dev)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if at != 0 {
		t.Fatalf("recovered to checkpoint %d, want 0", at)
	}
	got := runBatch(t, r, 1, keys, nil)
	want := runBatchValues(t, cfg, keys)
	for i := range got {
		if want[i] -= 0.1; got[i] != want[i] {
			t.Fatalf("recovered row[%d] = %v, want the checkpointed %v", i, got[i], want[i])
		}
	}
}

// waitFor polls cond until it holds, failing the test after five seconds.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); !cond(); time.Sleep(100 * time.Microsecond) {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
	}
}

// helpShard1 ends batch 0's pull phase of a two-shard, one-maintainer engine
// with the maintainer parked inside shard 0's round (another goroutine holds
// that shard's lock), starts a WaitMaintenance on its own goroutine and
// returns once that waiter has run shard 1's round itself. waited closes when
// the WaitMaintenance returns, which it cannot before release is called.
func helpShard1(t *testing.T, e *Engine, reg *obs.Registry) (release func(), waited chan struct{}) {
	t.Helper()
	locked, unlock := make(chan struct{}), make(chan struct{})
	go func() {
		e.shards[0].mu.Lock()
		close(locked)
		<-unlock
		e.shards[0].mu.Unlock()
	}()
	<-locked
	e.EndPullPhase(0)
	// Tasks are queued in shard order: the maintainer takes shard 0's and
	// blocks on the held lock, shard 1's stays queued.
	waitFor(t, "the maintainer to take shard 0's task", func() bool { return len(e.maintCh) == 1 })
	waited = make(chan struct{})
	go func() {
		e.WaitMaintenance()
		close(waited)
	}()
	helped, depth := reg.Counter("engine_maint_helped"), reg.Gauge("engine_maint_queue_depth")
	waitFor(t, "the waiter to run shard 1's round", func() bool { return helped.Value() == 1 && depth.Value() == 1 })
	select {
	case <-waited:
		t.Fatal("WaitMaintenance returned while shard 0's round was still blocked")
	default:
	}
	return func() { close(unlock) }, waited
}

// TestWaitMaintenanceHelps: a thread that waits for maintenance runs the
// rounds still queued. With the maintainer stuck inside shard 0's round (the
// test holds that shard's lock), a WaitMaintenance on another goroutine must
// run shard 1's round itself — seen before shard 0 is released — and return
// only once the maintainer's round is done too.
func TestWaitMaintenanceHelps(t *testing.T) {
	cfg := testConfig(2, 64, 16)
	cfg.Shards = 2
	cfg.Obs = obs.NewRegistry()
	e := newTestEngine(t, cfg)
	var keys []uint64
	var inShard [2][]uint64
	for k := uint64(1); len(inShard[0]) < 3 || len(inShard[1]) < 3; k++ {
		keys = append(keys, k)
		inShard[e.shardIndex(k)] = append(inShard[e.shardIndex(k)], k)
	}
	if err := e.Pull(0, keys, make([]float32, len(keys)*2)); err != nil {
		t.Fatal(err)
	}

	s0, s1 := e.shards[0], e.shards[1]
	release, waited := helpShard1(t, e, cfg.Obs)
	if n := s1.accessQ.Len(); n != 0 {
		t.Errorf("shard 1's access queue holds %d records after its round", n)
	}
	s1.mu.RLock()
	for _, k := range inShard[1] {
		if ent := s1.entryOf(k); ent == nil || !ent.node.InList() || ent.version != 0 {
			t.Errorf("key %d of shard 1 is not in its LRU at batch 0 after the helped round", k)
		}
	}
	cached := s1.lru.Len()
	s1.mu.RUnlock()
	if cached != len(inShard[1]) {
		t.Errorf("shard 1's LRU holds %d entries, want the batch's %d", cached, len(inShard[1]))
	}

	release()
	<-waited
	if got := cfg.Obs.Counter("engine_maint_helped").Value(); got != 1 {
		t.Errorf("engine_maint_helped = %d, want 1: shard 0's round ran on the maintainer", got)
	}
	s0.mu.RLock()
	if got := s0.lru.Len(); got != len(inShard[0]) {
		t.Errorf("shard 0's LRU holds %d entries after its round, want %d", got, len(inShard[0]))
	}
	s0.mu.RUnlock()
	if err := e.EndBatch(0); err != nil {
		t.Fatal(err)
	}
}

// helperMaintenanceError (a case of TestMaintenanceErrorSurfaces): a
// maintenance error raised inside a round a waiter ran — not a maintainer —
// reaches the caller at EndBatch all the same. The media poisons every
// flush; the maintainer is stuck in shard 0's round, so the error on record
// before shard 0 is released is the helper's.
func helperMaintenanceError(t *testing.T) {
	cfg := testConfig(2, 64, 2) // one cached entry per shard: each round evicts, dirty
	cfg.Shards = 2
	cfg.Obs = obs.NewRegistry()
	inj := faultinject.New(3, faultinject.Rule{Point: faultinject.PointPMemFlush, Kind: faultinject.KindPoison, Prob: 1, From: 1})
	e, _ := newFaultEngine(t, cfg, 256, inj)
	keys := []uint64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12}
	if err := e.Pull(0, keys, make([]float32, len(keys)*2)); err != nil {
		t.Fatal(err)
	}
	if e.shards[0].accessQ.Len() < 2 || e.shards[1].accessQ.Len() < 2 {
		t.Fatal("the keys do not spread over both shards")
	}
	release, waited := helpShard1(t, e, cfg.Obs)
	if err := e.maintErrs.peek(); !errors.Is(err, errMaintenance) || !errors.Is(err, pmem.ErrPoisoned) {
		t.Errorf("after the helped round the pending error is %v, want a maintenance error wrapping the poison", err)
	}
	release()
	<-waited
	if err := e.EndBatch(0); !errors.Is(err, errMaintenance) || !errors.Is(err, pmem.ErrPoisoned) {
		t.Fatalf("EndBatch = %v, want the helper's maintenance error", err)
	}
}

// coldGeom is a cold stream's geometry: the key space, the DRAM cache and
// the draws each of the two loaders pulls per batch.
type coldGeom struct {
	keyspace, cache, draws int
}

var (
	// smallCold keeps a whole run in a few megabytes: ~500 misses per batch,
	// enough for the allocation pin and quick to build.
	smallCold = coldGeom{keyspace: 1 << 13, cache: 1 << 9, draws: 256}
	// workloadCold is the geometry of bench/'s engine-local-cold: a ~120 MB
	// arena image (and as much again durable) that no cache level holds, so
	// every record a batch reads or writes back is a run of cache misses.
	workloadCold = coldGeom{keyspace: 1 << 18, cache: 1 << 14, draws: 4096}
)

// coldBatches prepares a steady-state cold engine of geometry g: every key of
// a key space 16x the cache exists and has been through PMem, and pool holds
// uniform key batches over it for two loaders. shards 0 is the default.
func coldBatches(tb testing.TB, shards int, g coldGeom) (*Engine, [][2][]uint64, []float32) {
	tb.Helper()
	const dim = 16
	keyspace, draws := g.keyspace, g.draws
	cfg := psengine.Config{
		Dim:          dim,
		Optimizer:    optim.NewAdaGrad(0.05),
		Capacity:     keyspace,
		CacheEntries: g.cache,
		Shards:       shards,
	}.WithDefaults()
	payload := pmem.FloatBytes(cfg.EntryFloats())
	slots := cfg.Capacity * 3
	dev := pmem.NewDevice(pmem.ArenaLayout(payload, slots), device.NewTimedPMem(nil))
	tb.Cleanup(func() { dev.Close() })
	arena, err := pmem.NewArena(dev, payload, slots)
	if err != nil {
		tb.Fatal(err)
	}
	e, err := New(cfg, arena)
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { e.Close() })
	x := uint64(20260927)
	next := func() uint64 { // splitmix64
		x += 0x9e3779b97f4a7c15
		z := x
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		return z ^ (z >> 31)
	}
	pool := make([][2][]uint64, 64)
	for i := range pool {
		for l := range pool[i] {
			pool[i][l] = make([]uint64, draws)
			for j := range pool[i][l] {
				pool[i][l][j] = next() % uint64(keyspace)
			}
		}
	}
	grads := make([]float32, draws*dim)
	for i := range grads {
		grads[i] = float32(next()%200)/1000 - 0.1
	}
	// Create every key, then run the pool through twice so caches, pools,
	// queues and write-back lists reach their steady sizes.
	all := make([]uint64, draws)
	dst := make([]float32, draws*dim)
	b := int64(0)
	for k := 0; k < keyspace; k += draws {
		for i := range all {
			all[i] = uint64(k + i)
		}
		if err := coldBatch(e, b, [2][]uint64{all, all[:1]}, dst, grads); err != nil {
			tb.Fatal(err)
		}
		b++
	}
	for i := 0; i < 2*len(pool); i++ {
		if err := coldBatch(e, b, pool[i%len(pool)], dst, grads); err != nil {
			tb.Fatal(err)
		}
		b++
	}
	return e, pool, grads
}

// coldBatch is one PS batch as two loaders issue it (sequentially here):
// Pull, Pull, EndPullPhase, Push, Push, EndBatch.
func coldBatch(e *Engine, b int64, keys [2][]uint64, dst, grads []float32) error {
	dim := e.Dim()
	for _, ks := range keys {
		if err := e.Pull(b, ks, dst[:len(ks)*dim]); err != nil {
			return err
		}
	}
	e.EndPullPhase(b)
	for _, ks := range keys {
		if err := e.Push(b, ks, grads[:len(ks)*dim]); err != nil {
			return err
		}
	}
	return e.EndBatch(b)
}

// TestMaintenanceAllocs pins the steady-state cold batch: Pull → EndPullPhase
// → Push → EndBatch over a key space 16x the cache — ~500 misses, promotions,
// evictions and record flushes per batch — allocates at most 2 objects, at
// GOMAXPROCS 1 and 2 (process-wide mallocs, so the maintainer's are
// counted; both read 0.5–0.9). Before the group-commit drain the same batch
// allocated about two objects per miss.
func TestMaintenanceAllocs(t *testing.T) {
	if lockRankDebug {
		t.Skip("-tags oedebug: runtime lock-rank checks allocate by design")
	}
	if raceEnabled {
		t.Skip("-race: detector instrumentation allocates")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 2} {
		runtime.GOMAXPROCS(procs)
		e, pool, grads := coldBatches(t, 2, smallCold)
		dst := make([]float32, len(pool[0][0])*e.Dim())
		b := int64(1 << 20)
		before := e.Stats()
		const runs = 200
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		for i := 0; i < runs; i++ {
			if err := coldBatch(e, b, pool[i%len(pool)], dst, grads); err != nil {
				t.Fatal(err)
			}
			b++
		}
		runtime.ReadMemStats(&m1)
		st := e.Stats()
		if flushed := (st.PMemWrites - before.PMemWrites) / runs; flushed < 300 {
			t.Fatalf("GOMAXPROCS=%d: %d record flushes per batch: not the cold regime this test pins", procs, flushed)
		}
		t.Logf("GOMAXPROCS=%d: %.2f allocations, %d flushes per cold batch", procs, float64(m1.Mallocs-m0.Mallocs)/runs, (st.PMemWrites-before.PMemWrites)/runs)
		if got := float64(m1.Mallocs-m0.Mallocs) / runs; got > 2 {
			t.Errorf("GOMAXPROCS=%d: %.1f allocations per cold batch, want <= 2", procs, got)
		}
		e.Close()
	}
}
