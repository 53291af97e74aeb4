package core

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"openembedding/internal/cache"
	"openembedding/internal/obs"
	"openembedding/internal/pmem"
	"openembedding/internal/psengine"
	"openembedding/internal/simclock"
)

// accessRec is one access-queue element: the key a pull touched, its hot
// entry when the pull hit in DRAM, and, when that pull served it from PMem,
// the row holding the full payload (weights and optimizer state) it decoded
// from the verified record. A PMem-served or first-touch key has no entry
// to point at, and a hot entry can be evicted, folded back and reused for
// another key before the round runs (the entry's live flag and key tell),
// so for those the maintenance round probes the index for the key under
// the exclusive lock. It promotes a cold key by adopting the staged row
// instead of reading and verifying the record a second time, and a staged
// row also tells it that the pull already counted the PMem read, so the
// stat is not charged twice for one logical fetch. The record owns the row
// until maintenance adopts it or hands it to the shard's row pool. Since the
// run sweep dedups a batch's repeated keys, each unique key a shard call
// touches contributes exactly one record.
type accessRec struct {
	ent *entry
	key uint64
	row []float32
}

// missRun is one first-touch key's run in a sorted position sublist:
// idxs[start:end] are the batch positions carrying the key.
type missRun struct {
	start, end int32
}

// pmemRun is one PMem-resident key's run, deferred by the sweep so that the
// shard call's PMem-resident runs are served by one scattered verified read.
// The sweep appends the run's (slot, key) to the lane's read list at the same
// index.
type pmemRun struct {
	start, end int32
	rec        int32 // index of the run's access record, which takes the staged row
}

// shard owns one slice of the key space: its own index, reader/writer
// lock, intrusive LRU list, access queue and side queue. Request threads on
// different shards never contend, and each shard's maintenance is an
// independent task: rounds of different shards run in parallel, on the
// background maintainer and on the request threads waiting for them.
//
// The paper's single reader/writer lock (Alg. 1 line 3, Alg. 2 line 9)
// becomes one lock per shard; the locking discipline within a shard is
// unchanged: request threads hold mu shared, maintenance holds it exclusive.
type shard struct {
	eng *Engine
	id  int

	// mu is the shard's reader/writer lock: request threads hold it shared,
	// cache maintenance holds it exclusive.
	//
	// oevet:lockrank core.shard.mu 10
	mu    rankedRWMutex
	index table
	hot   hotSet
	lru   *cache.List[*entry]

	// stripes serialize concurrent pushes to the same entry within the
	// push phase (several workers can carry gradients for one hot key).
	//
	// oevet:lockrank core.shard.stripe 15
	stripes [64]sync.Mutex

	// accessQ collects the entries each pull touched (Alg. 1 line 17).
	accessQ cache.Queue[accessRec]

	// sideQ collects entries Push promoted inline (cache smaller than one
	// batch's working set); EndBatch links them into the LRU.
	sideQ cache.Queue[*entry]

	// capacity is this shard's slice of the DRAM cache budget.
	capacity int

	// scrubKeys caches the sorted-key snapshot Scrub and ExportRange walk,
	// rebuilt lazily when scrubKeysStale records an index insert or delete —
	// a migration must not re-sort the whole key set under the lock for
	// every page it exports. Both guarded by mu.
	scrubKeys      []uint64
	scrubKeysStale bool

	// evictObs counts this shard's LRU evictions for the obs registry
	// (nil, and therefore free, when obs is disabled).
	evictObs *obs.Counter

	// snap is the shard's published serve snapshot (serve.go): pinned
	// lock-free by serving threads, stored only under the exclusive lock.
	// spare (guarded by mu) is the snapshot the last incremental publish
	// retired, whose slab the next one rewrites if no reader still pins it;
	// parked (guarded by mu) is an older retired snapshot of the epoch, whose
	// slab a round takes, rewritten whole, when the spare is pinned. Both are
	// nil after a full rebuild. heldLong (guarded by mu) records that a round
	// found both pinned; until a round finds the spare free, no pinned spare
	// is parked. snapStale (guarded by mu) records a hot-set membership
	// change since the last publication and forces the next rebuild to be
	// full; snapEpoch (guarded by mu) numbers full rebuilds.
	snap      atomic.Pointer[shardSnap]
	spare     *shardSnap
	parked    *shardSnap
	heldLong  bool
	snapStale bool
	snapEpoch uint64

	// serveQ collects keys the serve fallback read from PMem, awaiting
	// promotion by RefreshServeSnapshots. Internally locked leaf.
	serveQ serveQueue

	// wb is the write-back list of the maintenance round in progress: the
	// flushes the round has decided (victims, flush-before-overwrite) in
	// decision order, persisted together by commitLocked; wbEnts[i] is the
	// entry wb[i] persists, and wbRows is commit's scratch for the rows it
	// releases. All guarded by mu held exclusively, and empty whenever mu
	// is released (maintain.go).
	wb     []pmem.WriteRec
	wbEnts []*entry
	wbRows [][]float32

	// evicted and adopted count the evictions and staged-row promotions
	// decided since the last commit, which books them (settleLocked).
	// Guarded by mu held exclusively; zero whenever mu is released.
	evicted, adopted int64

	// rows recycles the DRAM rows of evicted entries: promotions, staged
	// pull misses and first-touch creations take from it, so a steady
	// state allocates no rows. Bounded by the shard's cache capacity.
	// Internally locked leaf.
	rows *cache.Pool[[]float32]
}

// takeRow returns one row: recycled if the pool has one, else fresh. A
// recycled row holds a previous entry's floats; every taker overwrites all
// of them (a promotion decodes a whole payload, a creation initializes
// weights and optimizer state).
func (s *shard) takeRow() []float32 {
	if row, ok := s.rows.Get(); ok {
		return row
	}
	return make([]float32, s.eng.cfg.EntryFloats())
}

// takeRows appends n rows to dst, from the row pool as far as it reaches
// and freshly allocated beyond (a warm-up cost: the pool fills as the cache
// starts evicting).
func (s *shard) takeRows(dst [][]float32, n int) [][]float32 {
	dst = s.rows.Take(dst, n)
	for len(dst) < n {
		dst = append(dst, make([]float32, s.eng.cfg.EntryFloats())) //oevet:alloc-ok warm-up only: once the cache evicts, the pool supplies every row
	}
	return dst
}

// fanOutRow copies the row already written at position i of dst to every
// other position of its run — the duplicate keys of a Zipf batch are served
// by one tier read and dim-float DRAM copies.
func fanOutRow(dst []float32, dim, i int, rest []int32) {
	if len(rest) == 0 {
		return
	}
	src := dst[i*dim : (i+1)*dim]
	for _, p := range rest {
		copy(dst[int(p)*dim:(int(p)+1)*dim], src)
	}
}

// pull serves this shard's portion of a Pull: idxs lists the positions in
// keys/dst that hash here (the single-shard path passes every position).
//
// The sweep is run-structured: idxs is sorted by (key, position), so a key
// pulled k times in one batch becomes one run — one index probe, one tier
// read, and k-1 in-DRAM fan-out copies — and the per-key meter charge
// becomes one batched ChargeN per sublist. PMem-resident runs are deferred
// and served together by one scattered verified read (servePMem). Scratch
// slices come from sc at the given lane (one lane per shard, so concurrent
// shard pulls of one request never share a buffer).
func (s *shard) pull(batch int64, keys []uint64, idxs []int32, dst []float32, sc *opScratch, lane int) error {
	e := s.eng
	dim := e.cfg.Dim
	recs := sc.recs[lane][:0]
	miss := sc.miss[lane][:0]
	runs := sc.pmem[lane][:0]
	reads := sc.reads[lane][:0]
	rows := sc.rows[lane][:0]
	defer func() {
		// Hand the (possibly grown) buffers back to the scratch lane.
		sc.recs[lane], sc.miss[lane], sc.pmem[lane], sc.reads[lane], sc.rows[lane] = recs, miss, runs, reads, rows[:0]
	}()

	n := len(idxs)
	sc.sortBuf[lane] = sortPosByKey(idxs, keys, sc.sortBuf[lane])
	// One probe charge per sublist instead of one atomic RMW per key; the
	// totals and op counts are exactly n per-key charges' (dedup does not
	// discount the probe cost — the paper's request handling hashes every
	// batch element before the index can collapse duplicates).
	e.cfg.Meter.ChargeN(simclock.Compute, time.Duration(n)*psengine.IndexProbeCost, int64(n))

	var hits int64
	s.mu.RLock()
	for start := 0; start < n; {
		i := int(idxs[start])
		k := keys[i]
		end := start + 1
		for end < n && keys[idxs[end]] == k {
			end++
		}
		_, w := s.index.find(k)
		switch {
		case w == 0:
			miss = append(miss, missRun{start: int32(start), end: int32(end)}) //oevet:alloc-ok appends into a pooled scratch lane: capacity persists across batches, steady state never grows
			recs = append(recs, accessRec{key: k})
		case w&tagHot != 0:
			// Outside a maintenance round a hot entry is in DRAM.
			ent := s.hot.at(w)
			copy(dst[i*dim:(i+1)*dim], ent.weights(dim))
			fanOutRow(dst, dim, i, idxs[start+1:end])
			hits += int64(end - start)
			recs = append(recs, accessRec{ent: ent, key: k}) //oevet:alloc-ok appends into a pooled scratch lane: capacity persists across batches, steady state never grows
		default:
			// servePMem stages the run's row in its access record.
			runs = append(runs, pmemRun{start: int32(start), end: int32(end), rec: int32(len(recs))}) //oevet:alloc-ok appends into a pooled scratch lane: capacity persists across batches, steady state never grows
			reads = append(reads, pmem.ReadRec{Slot: wordRef(w), Key: k})                             //oevet:alloc-ok appends into a pooled scratch lane: capacity persists across batches, steady state never grows
			recs = append(recs, accessRec{key: k})
		}
		start = end
	}
	var dup int64
	var err error
	if len(runs) > 0 {
		rows = s.takeRows(rows, len(runs))
		dup, err = s.servePMem(runs, reads, rows, recs, idxs, dst, sc.obsSample)
	}
	s.mu.RUnlock()
	if hits+dup > 0 {
		// DRAM-served positions: direct hits plus the duplicate positions of
		// PMem-served keys, which are in-DRAM copies of the run's first row
		// (they charge a DRAM read each, never a second PMem read).
		e.dram.ChargeReadN(4*dim, hits+dup)
		e.hits.Add(hits + dup)
	}
	if err != nil {
		s.rows.Put(rows...) // the records that staged them are not queued
		return err
	}

	// First-epoch path (Alg. 1 lines 6-12): create entries under the
	// exclusive lock, then serve them.
	if len(miss) > 0 {
		if err := s.createMissing(batch, keys, idxs, miss, dst); err != nil {
			s.rows.Put(rows...)
			return err
		}
	}
	s.accessQ.Push(recs...) // Push copies, so the scratch slice is reusable
	return nil
}

// servePMem serves the PMem-resident runs the sweep deferred with one
// scattered verified read over reads (reads[i] is run i's slot and key, in
// sorted-key order): one crash-lock hold, one read charge, the records'
// cache misses overlapped a block at a time, and each payload decoded
// straight from the device view into the run's row — no intermediate copy.
// Where the records sit only changes wall-clock cost: the virtual charge is
// per record (ReadScatteredVerified's charge rule), so simulated time never
// depends on the slots maintenance happened to pick.
//
// rows[i] is the row run i stages: the whole verified payload is decoded
// into it (the weights are then copied out to dst), and the run's access
// record carries it to the maintainer, whose promotion adopts it.
//
// Caller holds s.mu shared, which keeps the entries' slots stable (flushes
// that move a record run under the exclusive lock). Returns the number of
// duplicate positions fanned out in DRAM.
func (s *shard) servePMem(runs []pmemRun, reads []pmem.ReadRec, rows [][]float32, recs []accessRec, idxs []int32, dst []float32, sampled bool) (int64, error) {
	e := s.eng
	dim := e.cfg.Dim
	var dup int64
	var missStart time.Duration
	if sampled {
		missStart = e.obs.Now()
	}
	served, err := e.arena.ReadScatteredVerified(reads, func(i int, payload []byte) { //oevet:alloc-ok the callback runs synchronously inside ReadScatteredVerified and does not escape; the 0-alloc benchmark gate verifies
		r := runs[i]
		row := rows[i]
		pmem.DecodeFloats(row, payload)
		p := int(idxs[r.start])
		copy(dst[p*dim:(p+1)*dim], row[:dim])
		fanOutRow(dst, dim, p, idxs[r.start+1:r.end])
		recs[r.rec].row = row
		dup += int64(r.end - r.start - 1)
	})
	if served > 0 {
		e.pmemReads.Add(int64(served))
		e.misses.Add(int64(served))
	}
	if err != nil {
		if pmem.IsIntegrity(err) {
			e.obs.CorruptServe.Add(1)
			err = fmt.Errorf("core: pull of key %d: %w", reads[served].Key, err)
		}
		return dup, err
	}
	if sampled {
		// One miss's share of the call: the misses of a block are served
		// together, so no single one can be timed apart.
		e.obs.MissService.Observe((e.obs.Now() - missStart) / time.Duration(len(reads)))
	}
	return dup, nil
}

// createMissing creates first-touch entries under the shard's exclusive
// lock and serves their weights (fanned out to every duplicate position of
// each run). A key another caller created meanwhile is served from its
// entry; if that entry has already left the cache again (a serve refresh
// evicting between the two lock holds), it is promoted here.
func (s *shard) createMissing(batch int64, keys []uint64, idxs []int32, miss []missRun, dst []float32) error {
	e := s.eng
	dim := e.cfg.Dim
	e.cfg.Meter.Charge(simclock.LockSync, psengine.LockCost)
	var created, copies int64
	var err error
	s.mu.Lock()
	for _, m := range miss {
		i := int(idxs[m.start])
		k := keys[i]
		pos, w := s.index.find(k)
		var ent *entry
		if w == 0 {
			// Global capacity is a single atomic reservation so shards never
			// need each other's locks to enforce it.
			if n := e.entries.Add(1); n > int64(e.cfg.Capacity) {
				e.entries.Add(-1)
				err = fmt.Errorf("%w: %d entries", psengine.ErrCapacity, n-1) //oevet:alloc-ok the capacity error, on the way out
				break
			}
			// A fresh entry's initial state is the state as of the end of
			// the previous batch: stamping batch-1 keeps data versions
			// unique even when the entry is flushed (tiny cache) and then
			// pushed within its creation batch.
			ent = s.hot.take(k, s.id)
			ent.version, ent.dataVersion, ent.slot, ent.dirty = batch, batch-1, noSlot, true
			ent.buf = make([]float32, e.cfg.EntryFloats()) //oevet:alloc-ok a first touch's row: an entry is created once
			e.cfg.Initializer(k, ent.weights(dim))
			e.cfg.Optimizer.InitState(ent.state(dim))
			created++
			s.index.insert(pos, k, 0, hotWord(ent.num))
			s.scrubKeysStale = true
		} else if w&tagHot != 0 {
			ent = s.hot.at(w)
		} else if ent, err = s.promoteColdLocked(pos, nil); err != nil {
			break
		}
		copy(dst[i*dim:(i+1)*dim], ent.weights(dim))
		fanOutRow(dst, dim, i, idxs[m.start+1:m.end])
		copies += int64(m.end - m.start)
	}
	s.mu.Unlock()
	e.dram.ChargeWriteN(4*e.cfg.EntryFloats(), created)
	e.dram.ChargeReadN(4*dim, copies)
	e.hits.Add(copies)
	return err
}

// pushRun is one key's run of a push sublist, resolved to its index
// position (stable while the shared lock is held): idxs[start:end] are the
// batch positions carrying the key's gradients.
type pushRun struct {
	pos        int32
	start, end int32
}

// pushBlock is how many runs push touches ahead of applying them, so that a
// block's entry and row misses are in flight together (DESIGN.md §18).
const pushBlock = 16

// pushSink receives what touchRuns loads (see pmem's touchSink).
var pushSink atomic.Uint64

// push applies this shard's portion of a Push: idxs as in pull, sorted by
// (key, position) so each key's gradients form one run applied under a
// single stripe acquisition — in batch-position order, because float
// optimizer updates do not commute.
//
// The sublist's runs are first resolved to their index positions in one
// tight loop (the probes' misses overlap; nothing is written yet), then
// applied a block at a time, each block's slots, entries and rows touched
// before the stripes are taken; a run reads its slot's word under its
// stripe, since another push of the same key may have promoted it inline.
// An unknown key therefore fails the call before any gradient of this
// shard's sublist has been applied; sublists of other shards run
// independently and may have been. Any other error (an inline promotion that
// fails its read) leaves the runs before the failing one applied.
func (s *shard) push(batch int64, keys []uint64, idxs []int32, grads []float32, sc *opScratch, lane int) error {
	e := s.eng
	dim := e.cfg.Dim
	n := len(idxs)
	sc.sortBuf[lane] = sortPosByKey(idxs, keys, sc.sortBuf[lane])
	e.cfg.Meter.ChargeN(simclock.Compute, time.Duration(n)*psengine.IndexProbeCost, int64(n))
	runs := sc.push[lane][:0]
	s.mu.RLock()
	defer s.mu.RUnlock()
	for start := 0; start < n; {
		k := keys[idxs[start]]
		end := start + 1
		for end < n && keys[idxs[end]] == k {
			end++
		}
		pos, w := s.index.find(k)
		if w == 0 {
			sc.push[lane] = runs
			return fmt.Errorf("core: push of unknown key %d", k) //oevet:alloc-ok the unknown-key error, on the way out
		}
		runs = append(runs, pushRun{pos: int32(pos), start: int32(start), end: int32(end)}) //oevet:alloc-ok appends into a pooled scratch lane: capacity persists across batches, steady state never grows
		start = end
	}
	sc.push[lane] = runs
	var sink uint64
	for lo := 0; lo < len(runs); lo += pushBlock {
		blk := runs[lo:min(lo+pushBlock, len(runs))]
		sink += s.touchRuns(blk)
		for _, r := range blk {
			k := keys[idxs[r.start]]
			stripe := &s.stripes[k%uint64(len(s.stripes))]
			stripe.Lock()
			var ent *entry
			if w := s.index.word(int(r.pos)); w&tagHot != 0 {
				ent = s.hot.at(w)
			} else {
				// Fallback for caches smaller than one batch's working set:
				// promote inline (charged as a PMem read) and let EndBatch link
				// the entry into the LRU. This is a genuine extra device read
				// (the entry was evicted after the pull), so it is counted.
				var err error
				if ent, err = s.promoteShared(int(r.pos), w); err != nil {
					stripe.Unlock()
					return err
				}
				s.sideQ.Push(ent)
			}
			for _, p := range idxs[r.start:r.end] {
				i := int(p)
				e.cfg.Optimizer.Apply(ent.weights(dim), ent.state(dim), grads[i*dim:(i+1)*dim])
			}
			ent.dirty = true
			ent.dataVersion = batch
			s.markServeDirty(ent)
			stripe.Unlock()
		}
	}
	pushSink.Store(sink)
	// One batched charge per sublist for the DRAM stores and optimizer math
	// — totals and op counts identical to the per-position accounting.
	e.dram.ChargeWriteN(4*dim, int64(n))
	e.cfg.Meter.ChargeN(simclock.Compute, time.Duration(n)*optimizerCost(dim), int64(n))
	return nil
}

// touchRuns loads each run's index slot and, for a hot one, both cache
// lines of its entry. Only fields nothing writes while the shard lock is
// held shared are read (the word atomically; a hot entry's key: written
// before the word that names it; snapEpoch: written under the exclusive
// lock), so the pass needs no stripe.
//
// oevet:hotpath
func (s *shard) touchRuns(blk []pushRun) (sum uint64) {
	for i := range blk {
		if w := s.index.word(int(blk[i].pos)); w&tagHot != 0 {
			ent := s.hot.at(w)
			sum += ent.key + ent.snapEpoch
		} else {
			sum += w
		}
	}
	return sum
}
