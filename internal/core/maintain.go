package core

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"openembedding/internal/device"
	"openembedding/internal/pmem"
	"openembedding/internal/psengine"
	"openembedding/internal/simclock"
)

// lruOpCost is the calibrated virtual CPU cost of one LRU relink plus the
// associated bookkeeping during cache maintenance.
const lruOpCost = 15 * time.Nanosecond

// finalizerBudget bounds how many flushes a single batch's finalizer may
// perform to push a pending checkpoint towards completion. It spreads
// checkpoint work over batches instead of stalling one of them.
const finalizerBudget = 4096

// EndPullPhase implements psengine.Engine: every pull of the batch has been
// issued, the GPU phase begins, and the deferred cache maintenance of
// Algorithm 2 is handed to the maintainer (Alg. 2 lines 6-8 gate
// maintenance on pull completion; here the explicit signal replaces the
// polling loop). One task per non-empty shard is queued: a round nobody is
// waiting for runs on the one background maintainer, a round somebody is
// waiting for also runs on the waiters (WaitMaintenance, DESIGN.md §18).
func (e *Engine) EndPullPhase(batch int64) {
	if e.cfg.PipelineDisabled {
		return // maintenance already ran inline during Pull
	}
	queued := false
	for _, s := range e.shards {
		if s.accessQ.Len() > 0 {
			queued = true
			break
		}
	}
	if !queued {
		return
	}
	e.closeMu.RLock()
	if e.closed.Load() {
		e.closeMu.RUnlock()
		return // the maintainer is gone; Close discards what was queued
	}
	newest := e.roundThreshold()
	for _, s := range e.shards {
		entries := s.accessQ.Drain()
		if entries == nil {
			continue
		}
		e.pending.Add(1)
		e.obs.MaintQueue.Add(1)
		e.maintCh <- maintTask{batch: batch, newest: newest, sh: s, entries: entries}
	}
	e.closeMu.RUnlock()
}

// roundThreshold opens a batch's maintenance at the coordinator, before any
// of its shard rounds can flush. It activates the head checkpoint (the
// activation scan takes shard locks, so it cannot live inside shard
// maintenance, see checkpoint.go) and then reads the flush-before-overwrite
// threshold — the newest pending checkpoint — ONCE for all the batch's
// rounds. The rounds of one batch run concurrently (the maintainer and
// helping waiters), and one shard's finalizer can complete the checkpoint
// while another shard's round has not started: a threshold each round read
// for itself would make the flush count depend on that schedule (DESIGN.md
// §18).
func (e *Engine) roundThreshold() int64 {
	e.activateHead()
	return e.newestCheckpoint()
}

// WaitMaintenance implements psengine.Engine. A waiter works: it first runs
// whatever maintenance tasks are still queued — through runTask, the body of
// a maintainer's loop iteration — and only then blocks for the rounds other
// threads are running. Nothing is started and nobody is woken, so when
// maintenance finished inside the compute phase the queue is empty and this
// is a bare wait. The caller holds no engine lock (a round takes its shard's
// lock exclusively). A closed channel falls through to the wait.
func (e *Engine) WaitMaintenance() {
	for {
		select {
		case task, ok := <-e.maintCh:
			if ok {
				e.obs.MaintHelped.Add(1)
				e.runTask(task)
				continue
			}
		default:
		}
		e.pending.Wait()
		return
	}
}

// errMaintenance wraps asynchronous maintenance failures; EndBatch surfaces
// them.
var errMaintenance = errors.New("core: maintenance failed")

type maintErrBox struct {
	mu  sync.Mutex
	err error
}

func (b *maintErrBox) set(err error) {
	b.mu.Lock()
	if b.err == nil {
		b.err = err
	}
	b.mu.Unlock()
}

// peek reports the pending maintenance error without consuming it, so
// EndBatch's take still surfaces it on the training path.
func (b *maintErrBox) peek() error {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.err
}

func (b *maintErrBox) take() error {
	b.mu.Lock()
	defer b.mu.Unlock()
	err := b.err
	b.err = nil
	return err
}

func (e *Engine) maintainLoop() {
	defer e.maintWG.Done()
	for task := range e.maintCh {
		e.runTask(task)
	}
}

// runTask runs one queued shard round to completion and retires it from
// pending: what a maintainer does per task, and what a waiter does for the
// tasks it finds queued. The caller holds no engine lock.
//
// oevet:coldpath a whole maintenance round (snapshot rebuild, checkpoint finalizer): when a waiting Push runs it, it runs in place of the wait, not on the per-key path; TestMaintenanceAllocs pins the round's steady-state allocations
func (e *Engine) runTask(task maintTask) {
	// The drain's span happens outside every lock; the gauge reports
	// tasks queued or running, so it drops only once the drain is done.
	sp := e.obs.Start("maint.drain", "engine", int64(task.sh.id), task.batch)
	err := task.sh.runMaintenance(task.batch, task.newest, task.entries)
	e.obs.MaintDrain.Observe(sp.EndArg("entries", int64(len(task.entries))))
	task.sh.accessQ.Recycle(task.entries)
	e.obs.MaintQueue.Add(-1)
	if err != nil {
		e.maintErrs.set(err)
	} else if err := e.finalizeCheckpoints(); err != nil {
		e.maintErrs.set(err)
	}
	e.pending.Done()
}

// inlineMaintain is the pipeline-disabled path: maintenance for every shard
// runs synchronously on the request thread that finished the pull.
//
// oevet:coldpath pipeline-disabled ablation: paying maintenance (and its allocations) on the request thread is the measured effect, not hot-path overhead
func (e *Engine) inlineMaintain(batch int64) {
	newest := e.roundThreshold()
	for _, s := range e.shards {
		recs := s.accessQ.Drain()
		err := s.runMaintenance(batch, newest, recs)
		s.accessQ.Recycle(recs)
		if err != nil {
			e.maintErrs.set(err)
			return
		}
	}
	if err := e.finalizeCheckpoints(); err != nil {
		e.maintErrs.set(err)
	}
}

// runMaintenance executes Algorithm 2 for one batch's accesses to this
// shard: flush-before-overwrite for checkpoint consistency, LRU reordering,
// promotion of missed entries, and eviction — all under the shard's
// exclusive lock, independent of every other shard.
//
// One round is one group commit (DESIGN.md §18): drainLocked takes every
// decision record by record — which entry is flushed before its overwrite,
// which victim leaves the cache, in which order — but only queues the
// flushes on the shard's write-back list; commitLocked then persists the
// list with one batched arena write. What is decided, counted and charged
// is what per-record flushing decided, counted and charged; only the
// wall-clock cost of the I/O — and of the bookkeeping, which commitLocked
// settles per round instead of per record — is shared.
func (s *shard) runMaintenance(batch, newest int64, recs []accessRec) error {
	e := s.eng
	e.cfg.Meter.Charge(simclock.LockSync, psengine.LockCost)
	s.mu.Lock()
	defer s.mu.Unlock()

	err := s.drainLocked(batch, newest, recs)
	// Commit even when the drain stopped early: the flushes queued before
	// the failure are decided, and their entries hold no other copy.
	if cerr := s.commitLocked(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	// Serving mode: republish this shard's hot-set snapshot while the
	// exclusive lock is already held, so serve reads see the batch's pushes
	// at the next batch boundary (serve.go).
	s.rebuildSnapLocked()
	return nil
}

// drainLocked is the record loop of a maintenance round: the per-entry
// decisions of Algorithm 2, with every flush they call for queued on the
// write-back list instead of issued. It allocates nothing in the steady
// state: promoted rows arrive staged in the access records, evicted rows go
// back to the row pool, and the write-back list keeps its capacity.
//
// newest is the batch's flush-before-overwrite threshold (roundThreshold):
// once any queued checkpoint needs a data version, it must reach PMem before
// the coming push replaces it.
//
// oevet:hotpath
// oevet:holds core.shard.mu 10
func (s *shard) drainLocked(batch, newest int64, recs []accessRec) error {
	e := s.eng
	meter := e.cfg.Meter
	// Pipelined maintenance runs off the critical path on dedicated
	// threads: plain CPU work. With the pipeline disabled (Fig. 9
	// ablation) the same work runs inline under the shard's exclusive
	// lock while request threads wait — serialized and convoy-prone, like
	// any black-box cache.
	maintCat, maintCost := simclock.Compute, lruOpCost
	if e.cfg.PipelineDisabled {
		maintCat, maintCost = simclock.GlobalSync, inlineMaintCost
	}
	// One charge for the records the loop got through, on every way out:
	// totals and op counts are those of a charge per record.
	drained := 0
	defer func() {
		meter.ChargeN(maintCat, time.Duration(drained)*maintCost, int64(drained))
	}()
	for i := range recs {
		staged := recs[i].row
		drained++
		ent, pos := recs[i].ent, 0
		if ent == nil || !ent.live || ent.key != recs[i].key {
			var ok bool
			if ent, pos, ok = s.probeLocked(recs[i].key); !ok {
				// Dropped since the pull (a scrub fence, a migration drop).
				if staged != nil {
					s.rows.Put(staged)
				}
				continue
			}
		}
		if ent != nil && ent.inDRAM() {
			if staged != nil {
				// Another pull of the batch missed on the same entry and an
				// earlier record already promoted it.
				s.rows.Put(staged)
			}
			// Alg. 2 lines 12-17: persist the pre-update version if a
			// pending checkpoint still needs it, then refresh recency.
			if ent.dirty && ent.dataVersion <= newest {
				s.queueFlushLocked(ent)
			}
			ent.version = batch
			if ent.node.InList() {
				s.lru.MoveToFront(&ent.node)
			} else {
				s.lru.PushFront(&ent.node) // first-epoch entry born in DRAM
				s.snapStale = true
			}
		} else {
			// Alg. 2 lines 18-21: promote the missed entry.
			var err error
			if ent, err = s.promoteLocked(recs[i].key, ent, pos, staged); err != nil {
				return err
			}
			ent.version = batch
			s.lru.PushFront(&ent.node)
			s.snapStale = true
		}
		// With the cache disabled, the batch's working set stays in DRAM
		// until EndBatch (a per-batch staging buffer): pushes still land in
		// DRAM and the write-back happens at the batch boundary, off the
		// pull/push critical path when the pipeline is on.
		if !e.cfg.CacheDisabled {
			s.enforceCapacityLocked()
		}
	}
	return nil
}

// inlineMaintCost is the per-entry cost of cache maintenance executed
// inline under the exclusive lock (pipeline disabled): an exclusive
// cache-line handoff per lock acquisition plus the list splice.
const inlineMaintCost = 500 * time.Nanosecond

// probeLocked resolves an access record whose pull did not hit in DRAM, or
// whose entry is no longer the key's (see accessRec): what the index holds
// for k now — its hot entry, or (nil, its position) when it is cold. ok is
// false when k has left the index since the pull.
//
// oevet:holds core.shard.mu 10
func (s *shard) probeLocked(k uint64) (ent *entry, pos int, ok bool) {
	pos, w := s.index.find(k)
	switch {
	case w == 0:
		return nil, 0, false
	case w&tagHot != 0:
		return s.hot.at(w), 0, true
	}
	return nil, pos, true
}

// promoteLocked brings key k back into DRAM under the shard's exclusive
// lock: the cold entry at pos when ent is nil, else ent, a hot entry evicted
// earlier in the same round (a cache smaller than the batch's working set)
// whose flush is still queued — its slot names the superseded record, or
// nothing. The write-back list is then committed first, which folds ent back
// into its slot, so a promotion never reads a slot its pending record has
// not reached; a staged row predates that and is dropped.
//
// staged, when set, is the row the batch's pull decoded from the entry's
// verified record as it served the miss: the promotion adopts it, and
// neither reads nor verifies the record a second time nor counts the read
// again — the pull counted it. The virtual time of the fetch is charged all
// the same: the system the meter models reads the record here (Alg. 2 line
// 19); keeping the pull's copy is this implementation's shortcut, not the
// modelled machine's. (commitLocked settles the charge with the round's
// others.)
//
// oevet:holds core.shard.mu 10
func (s *shard) promoteLocked(k uint64, ent *entry, pos int, staged []float32) (*entry, error) {
	if ent != nil {
		if staged != nil {
			s.rows.Put(staged)
			staged = nil
		}
		if err := s.commitLocked(); err != nil {
			return nil, err
		}
		pos, _ = s.index.find(k)
	}
	return s.promoteColdLocked(pos, staged)
}

// promoteColdLocked makes the cold entry at pos hot and gives it its row:
// staged, adopted (see promoteLocked), or read from its record. A failed read
// folds it back, cold as it was.
//
// oevet:holds core.shard.mu 10
func (s *shard) promoteColdLocked(pos int, staged []float32) (*entry, error) {
	ent := s.hotLocked(pos)
	if staged != nil {
		ent.buf = staged
		s.adopted++
		return ent, nil
	}
	if err := s.readPromote(ent); err != nil {
		s.foldLocked(ent)
		return nil, err
	}
	return ent, nil
}

// enforceCapacityLocked evicts LRU victims while the shard's cache exceeds
// its budget (Alg. 2 lines 22-31), queueing the dirty ones' flushes; the
// caller commits before it releases the lock. Checkpoint completion — which
// the paper detects here from the victim's version — falls out of the flush
// bookkeeping in commitLocked.
//
// oevet:holds core.shard.mu 10
func (s *shard) enforceCapacityLocked() {
	limit := s.cacheCapacity()
	for s.lru.Len() > limit {
		s.evictLocked(s.lru.Back().Value)
	}
}

func (s *shard) cacheCapacity() int {
	if s.eng.cfg.CacheDisabled {
		return 0
	}
	return s.capacity
}

// evictLocked releases a victim's DRAM copy, queueing its write-back to
// PMem first when it is dirty. A clean victim's row goes straight to the row
// pool and the victim folds back into its cold slot; a row with a write-back
// pending belongs to the write-back list until the commit has encoded it,
// and the victim keeps its hot form until then (commitChunkLocked folds it).
// The eviction is counted and charged when the caller commits.
//
// oevet:holds core.shard.mu 10
func (s *shard) evictLocked(victim *entry) {
	if victim.dirty {
		s.queueFlushLocked(victim)
	}
	s.lru.Remove(&victim.node)
	if victim.wbPending {
		victim.buf = nil
	} else {
		s.rows.Put(victim.buf)
		victim.buf = nil
		s.foldLocked(victim)
	}
	s.snapStale = true
	s.evicted++
}

// queueFlushLocked decides the flush of ent's current DRAM state: the entry
// is clean from here on, and the write-back list holds the record to write
// — stamped with the entry's data version, superseding the record at the
// entry's present slot — and, with it, the row. Nothing touches the device
// until commitLocked.
//
// oevet:holds core.shard.mu 10
func (s *shard) queueFlushLocked(ent *entry) {
	ent.dirty = false
	ent.wbPending = true
	s.wb = append(s.wb, pmem.WriteRec{ //oevet:alloc-ok the list keeps its capacity across rounds: it grows to the largest round's flush count once
		Key: ent.key, Version: ent.dataVersion, Row: ent.buf,
		Old: ent.slot, OldVersion: ent.persistedVersion,
	})
	s.wbEnts = append(s.wbEnts, ent) //oevet:alloc-ok grows with s.wb, once
}

// flushLocked persists one entry's current DRAM state now: a group commit
// of one (plus whatever the caller had queued), through the same path as a
// maintenance round's. The finalizer, migration adopts and scrub repairs
// use it. Caller holds this shard's exclusive lock.
//
// oevet:holds core.shard.mu 10
func (s *shard) flushLocked(ent *entry) error {
	s.queueFlushLocked(ent)
	return s.commitLocked()
}

// commitLocked persists the write-back list as one group commit and installs
// the result: slots for the whole list are reserved under one arena lock
// acquisition, the records written by one batched arena call (rows encoded
// straight into the device image, one crash-lock hold, one write charge of
// one op per record), the superseded slots retired under one more
// acquisition, and only then do the entries learn their new slots and the
// active checkpoint its progress — no entry's slot ever names a record that
// is not durable, and no superseded record can be reclaimed before its
// replacement is. Rows of entries evicted since they were queued return to
// the row pool here, and those entries fold back into their cold slots.
//
// When the arena cannot hold the whole list, the reserved prefix is
// committed first: retiring its superseded records is what lets the reclaim
// that follows free slots for the rest, exactly as it would between two
// per-record flushes. On error the unwritten entries are made dirty and
// resident again; nothing is lost but the cache bound, and the error
// surfaces at EndBatch.
//
// oevet:holds core.shard.mu 10
func (s *shard) commitLocked() error {
	s.settleLocked()
	var err error
	done := 0
	for done < len(s.wb) && err == nil {
		var n int
		n, err = s.commitChunkLocked(s.wb[done:], s.wbEnts[done:])
		done += n
	}
	for i := done; i < len(s.wb); i++ {
		ent := s.wbEnts[i]
		ent.dirty, ent.wbPending = true, false
		if !ent.inDRAM() {
			ent.buf = s.wb[i].Row
			s.lru.PushFront(&ent.node)
			s.snapStale = true
		}
	}
	s.wb, s.wbEnts = s.wb[:0], s.wbEnts[:0]
	return err
}

// settleLocked books the evictions and staged-row promotions decided since
// the last commit — the Evictions stat, and the virtual time each one costs
// — in one step per kind: n ops of the per-record cost, which is what
// booking them one at a time adds up to.
//
// oevet:holds core.shard.mu 10
func (s *shard) settleLocked() {
	e := s.eng
	if n := s.evicted; n > 0 {
		s.evicted = 0
		e.evictions.Add(n)
		s.evictObs.Add(n)
		e.cfg.Meter.ChargeN(simclock.Compute, time.Duration(n)*lruOpCost, n)
	}
	if n := s.adopted; n > 0 {
		s.adopted = 0
		e.arena.ChargeRecordReads(n)
		e.dram.ChargeWriteN(4*e.cfg.EntryFloats(), n)
		e.chargeInlineSerialN(device.PMem().ReadCost(e.arena.PayloadBytes()), n)
	}
}

// commitChunkLocked commits as long a prefix of recs as the arena has slots
// for and returns how many records it made durable and installed.
//
// oevet:holds core.shard.mu 10
func (s *shard) commitChunkLocked(recs []pmem.WriteRec, ents []*entry) (int, error) {
	e := s.eng
	n := e.arena.AllocN(recs)
	if n == 0 {
		// Reclaim superseded records that no present or future checkpoint
		// can need, then retry once.
		e.reclaim()
		if n = e.arena.AllocN(recs); n == 0 {
			return 0, fmt.Errorf("%w: flush of key %d: %w", errMaintenance, recs[0].Key, pmem.ErrFull) //oevet:alloc-ok the arena is full and the round fails here
		}
	}
	recs = recs[:n]
	done, err := e.arena.WriteBatch(recs, e.verifyFlushes())
	if err != nil {
		done, err = s.retryPoisonedLocked(recs, done, err)
	}

	var needed int64
	for i := range recs[:done] {
		ent := ents[i]
		if ent.ckptPending {
			ent.ckptPending = false
			needed++
		}
		ent.slot, ent.persistedVersion, ent.wbPending = recs[i].Slot, recs[i].Version, false
		if !ent.inDRAM() {
			s.wbRows = append(s.wbRows, recs[i].Row) //oevet:alloc-ok scratch that keeps its capacity across rounds
			s.foldLocked(ent)
		}
	}
	e.arena.RetireBatch(recs[:done])
	s.rows.Put(s.wbRows...)
	clear(s.wbRows)
	s.wbRows = s.wbRows[:0]
	e.pmemWrites.Add(int64(done))
	e.obs.FlushBytes.Add(int64(done) * int64(e.arena.PayloadBytes()))
	// When maintenance is inline, the lock holder additionally waits out
	// the CLWB+SFENCE drain to media (~1us on Optane for a record-sized
	// range) per record — pipelined maintenance pays it too, but off the
	// critical path, where it is already covered by the device charge.
	e.chargeInlineSerialN(device.PMem().WriteCost(e.arena.PayloadBytes())+inlineFlushDrain, int64(done))
	e.noteFlushed(needed)
	if err != nil {
		return done, fmt.Errorf("%w: flush of key %d: %w", errMaintenance, recs[done].Key, err)
	}
	return done, nil
}

// retryPoisonedLocked continues a verified batch write that stopped at
// recs[done] with err. A slot whose media is poisoned (the arena already
// rewrote it three times) is quarantined and a fresh slot takes over, up to
// four times per record; then, or on any other error, the write is given up:
// the failed record's slot and the slots reserved for the records after it
// leave the batch. Returns the new done count and the error, if it stands.
//
// oevet:coldpath only a media fault or an arena that rejects the record gets here
// oevet:holds core.shard.mu 10
func (s *shard) retryPoisonedLocked(recs []pmem.WriteRec, done int, err error) (int, error) {
	e := s.eng
	for tries := 0; errors.Is(err, pmem.ErrPoisoned) && tries < 4; tries++ {
		e.quarantineEmpty(recs[done].Slot)
		slot, aerr := e.arena.Alloc()
		if errors.Is(aerr, pmem.ErrFull) {
			e.reclaim()
			slot, aerr = e.arena.Alloc()
		}
		if aerr != nil {
			recs[done].Slot, err = noSlot, aerr
			break
		}
		recs[done].Slot = slot
		var more int
		if more, err = e.arena.WriteBatch(recs[done:], e.verifyFlushes()); more > 0 {
			tries = -1 // a later record is failing now; it gets its own four
		}
		done += more
		if err == nil {
			return done, nil
		}
	}
	switch {
	case recs[done].Slot == noSlot:
	case errors.Is(err, pmem.ErrPoisoned):
		e.quarantineEmpty(recs[done].Slot)
	default:
		e.arena.Free(recs[done].Slot)
	}
	for _, r := range recs[done+1:] {
		e.arena.Free(r.Slot)
	}
	return done, err
}

// inlineFlushDrain is the media-drain wait of a persist executed under the
// exclusive lock (pipeline-disabled ablation).
const inlineFlushDrain = 1 * time.Microsecond

// quarantineEmpty quarantines a slot that was allocated by this flush and
// never held a live record. Unlike Arena.Quarantine's general contract it
// owes no epoch fence: the entry's DRAM state is intact and is either
// retried into a fresh slot or surfaced as a flush error.
func (e *Engine) quarantineEmpty(slot uint32) {
	e.arena.Quarantine(slot) //oevet:fence-ok the slot was allocated in this flush and never held a live record; no durable state is lost
}

// EndBatch implements psengine.Engine: it waits for the batch's deferred
// maintenance, surfaces asynchronous errors, folds in entries that Push had
// to promote inline, advances pending checkpoints, and reclaims PMem space
// that no checkpoint can need. It barriers over every shard, so after it
// returns the engine is consistent for checkpoint requests at batch.
func (e *Engine) EndBatch(batch int64) error {
	if e.closed.Load() {
		return psengine.ErrClosed
	}
	e.WaitMaintenance()
	if err := e.maintErrs.take(); err != nil {
		return err
	}
	var firstErr error
	for _, s := range e.shards {
		s.mu.Lock()
		side := s.sideQ.Drain()
		for _, ent := range side {
			if ent.inDRAM() && !ent.node.InList() {
				ent.version = batch
				s.lru.PushFront(&ent.node)
				s.snapStale = true
			}
		}
		s.sideQ.Recycle(side)
		s.enforceCapacityLocked()
		if err := s.commitLocked(); err != nil && firstErr == nil {
			firstErr = err
		}
		s.rebuildSnapLocked()
		s.mu.Unlock()
	}
	err := firstErr
	if err == nil {
		// Checkpoint stall: the finalizer time a batch boundary waits out.
		// Both the histogram and the span fire only when checkpoint work was
		// actually in flight, so neither is diluted by no-op batches.
		if e.obs.Enabled() && (e.ckptRemaining.Load() > 0 || e.PendingCheckpoints() > 0) {
			sp := e.obs.Start("ckpt.finalize", "engine", 0, batch)
			err = e.finalizeCheckpoints()
			e.obs.CkptStall.Observe(sp.End())
		} else {
			err = e.finalizeCheckpoints()
		}
	}
	e.lastEnded.Store(batch)
	e.reclaim()
	if err != nil {
		return err
	}
	return e.maintErrs.take()
}
