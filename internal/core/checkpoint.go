package core

import (
	"fmt"
	"runtime"

	"openembedding/internal/psengine"
)

// Checkpointing follows Algorithm 2's co-design with cache replacement: a
// request only enqueues a batch ID; the actual persistence work happens as
// entries are flushed during normal cache maintenance, and the durable
// Checkpointed Batch ID advances once every state the checkpoint needs is
// in PMem.
//
// The paper detects completion from the LRU tail (victim version newer than
// the on-going checkpoint). That detection is exact only under the paper's
// operating assumption that the cache always holds a full batch's working
// set. This implementation keeps the same flush schedule but tracks
// completion exactly: when a checkpoint becomes the active head, one scan
// over every shard's cache counts the dirty entries whose data it needs
// (ckptRemaining); every flush that persists such an entry decrements the
// counter; zero means complete. The scan also memoizes those entries so the
// per-batch finalizer can push the checkpoint to completion even when the
// cache is so effective that evictions never occur.
//
// The accounting stays centralized at the coordinator rather than per
// shard: a checkpoint is one cross-shard predicate ("every dirty entry with
// dataVersion <= cp is persisted"), and completing it publishes one durable
// Checkpointed Batch ID — splitting the count N ways would still need a
// global merge step on every flush to detect the zero crossing, so N-way
// counters buy nothing. Instead the counter is a single atomic that
// per-shard flushes decrement lock-free, and the queue/flush-list live
// under the small ckptMu.
//
// Lock ordering: shard.mu → ckptMu → arena.mu. A flush calls noteFlushed
// (and possibly completeCheckpoint) while holding its shard's lock, so
// ckptMu must never be held while acquiring a shard lock. The activation
// scan needs every shard's lock; activateHead therefore publishes its
// intent under ckptMu (ckptActivating plus a bias on the counter), releases
// ckptMu, scans the shards lock by lock, and only then folds the count in.
// The bias keeps concurrent decrements from reaching zero mid-scan, so the
// zero crossing — and hence completion — still happens exactly once.

// RequestCheckpoint implements psengine.Engine: it appends the batch to the
// Checkpoint Request Queue (Fig. 5 right). "No other work needs to be done
// at this time."
//
// batch must be the most recently sealed batch (the paper always
// checkpoints "the latest batch that completed training"), and the call
// must happen at a batch boundary — after EndBatch(batch) and before the
// next batch's Push phase — because a push overwrites in DRAM exactly the
// state the checkpoint captures.
func (e *Engine) RequestCheckpoint(batch int64) error {
	if sealed := e.lastEnded.Load(); batch != sealed {
		return fmt.Errorf("core: checkpoint batch %d is not the last sealed batch %d", batch, sealed)
	}
	e.ckptMu.Lock()
	defer e.ckptMu.Unlock()
	if n := len(e.ckptQueue); n > 0 && batch <= e.ckptQueue[n-1] {
		return fmt.Errorf("core: checkpoint batch %d not newer than queued %d", batch, e.ckptQueue[n-1])
	}
	if batch <= e.completedCkpt.Load() {
		return fmt.Errorf("core: checkpoint batch %d already covered by completed %d", batch, e.completedCkpt.Load())
	}
	e.ckptQueue = append(e.ckptQueue, batch)
	return nil
}

// CompletedCheckpoint implements psengine.Engine.
func (e *Engine) CompletedCheckpoint() int64 { return e.completedCkpt.Load() }

// PrevCompletedCheckpoint returns the checkpoint retained behind the
// latest one, or -1 (always -1 unless cfg.RetainCheckpoints >= 2). A
// rollback (RecoverTo) may target either retained checkpoint.
func (e *Engine) PrevCompletedCheckpoint() int64 { return e.prevCompleted.Load() }

// WaitCheckpoints implements psengine.Engine: it runs the finalizer on the
// caller's thread, a budget per pass, until every checkpoint queued before
// the call is durable. A pass that lost a race retries; an active checkpoint
// owing flushes with none listed and none draining can never complete.
func (e *Engine) WaitCheckpoints() error {
	target := e.newestCheckpoint()
	for {
		if e.closed.Load() {
			return psengine.ErrClosed
		}
		if err := e.maintErrs.peek(); err != nil || e.completedCkpt.Load() >= target {
			return err
		}
		if err := e.finalizeCheckpoints(); err != nil {
			return err
		}
		e.ckptMu.Lock()
		cp, rem := e.ckptActive, e.ckptRemaining.Load()
		stuck := cp >= 0 && rem > 0 && !e.ckptActivating && len(e.ckptFlushList) == 0 && e.ckptDraining.Load() == 0
		e.ckptMu.Unlock()
		if stuck {
			return fmt.Errorf("core: checkpoint %d owes %d flushes and has none left to run", cp, rem)
		}
		runtime.Gosched()
	}
}

// PendingCheckpoints reports how many checkpoint requests are in flight.
func (e *Engine) PendingCheckpoints() int {
	e.ckptMu.Lock()
	defer e.ckptMu.Unlock()
	return len(e.ckptQueue)
}

// newestCheckpoint returns the newest queued checkpoint's batch ID or -1.
// The flush-before-overwrite test uses it so that data needed by *any*
// pending checkpoint is persisted before a newer push destroys it.
func (e *Engine) newestCheckpoint() int64 {
	e.ckptMu.Lock()
	defer e.ckptMu.Unlock()
	if len(e.ckptQueue) == 0 {
		return -1
	}
	return e.ckptQueue[len(e.ckptQueue)-1]
}

// ckptScanBias keeps ckptRemaining positive while an activation scan is in
// flight, so flushes that race with the scan cannot drive it to zero before
// the scan's count has been folded in.
const ckptScanBias = int64(1) << 40

// activateHead makes the queue head the active checkpoint if it is not
// already, counting (and memoizing) the dirty cached entries across all
// shards whose data the checkpoint needs. A checkpoint with nothing left to
// persist completes immediately. It returns the active checkpoint's batch
// ID, or -1 when none is pending.
//
// Callers hold no shard lock (the scan acquires them one at a time). It is
// called from the coordinator paths only: EndPullPhase, the finalizer and
// the inline-maintenance path.
func (e *Engine) activateHead() int64 {
	for {
		e.ckptMu.Lock()
		if e.ckptActivating || e.ckptActive >= 0 {
			head := e.ckptActive
			e.ckptMu.Unlock()
			return head
		}
		if len(e.ckptQueue) == 0 {
			e.ckptMu.Unlock()
			return -1
		}
		head := e.ckptQueue[0]
		e.ckptActive = head
		e.ckptActivating = true
		e.ckptFlushList = e.ckptFlushList[:0]
		e.ckptRemaining.Store(ckptScanBias)
		e.ckptMu.Unlock()

		// Scan outside ckptMu: shard locks must never nest inside it. The
		// list is the engine's, reused by every activation: ckptActivating
		// lets only one scan at a time.
		var count int64
		marked := e.ckptScan[:0]
		for _, s := range e.shards {
			s.mu.Lock()
			s.lru.Each(func(ent *entry) bool {
				if ent.dirty && ent.dataVersion <= head {
					ent.ckptPending = true
					count++
					marked = append(marked, ent)
				}
				return true
			})
			s.mu.Unlock()
		}

		// Fold the count in before clearing ckptActivating: WaitCheckpoints
		// reads the two together to tell a finished scan from a running one.
		e.ckptMu.Lock()
		e.ckptFlushList = append(e.ckptFlushList, marked...)
		clear(marked) // hold no entry an eviction has dropped
		e.ckptScan = marked[:0]
		rem := e.ckptRemaining.Add(count - ckptScanBias)
		e.ckptActivating = false
		e.ckptMu.Unlock()
		if rem > 0 {
			return head
		}
		// Everything the checkpoint needed was already persisted (or was
		// flushed while we scanned): complete it and loop so the next
		// queued checkpoint (if any) becomes active.
		e.completeCheckpoint(head)
	}
}

// noteFlushed records that n dirty entries needed by the active checkpoint
// have been persisted, completing the checkpoint when they were the last
// ones. Called from commitLocked with the flushing shard's lock held; the
// decrement is a bare atomic, so flushes on different shards never contend
// here. Exactly one caller observes the zero crossing (every entry a commit
// settles was counted by the same activation scan, so a commit cannot step
// over zero), and until that caller runs completeCheckpoint no new
// activation can begin, so reading ckptActive afterwards is stable.
//
// oevet:holds core.shard.mu 10
func (e *Engine) noteFlushed(n int64) {
	if n == 0 {
		return
	}
	if e.ckptRemaining.Add(-n) != 0 {
		return
	}
	e.ckptMu.Lock()
	cp := e.ckptActive
	e.ckptMu.Unlock()
	e.completeCheckpoint(cp)
}

// completeCheckpoint durably records checkpoint cp as done
// (Alg. 2 lines 24-28): persist the Checkpointed Batch ID with one atomic
// PMem store, pop the request queue, and release superseded records the
// space manager retained for it. Safe to call with a shard lock held
// (ckptMu and the arena's own lock order after shard locks); lockorder
// checks it against the worst-case caller, noteFlushed, by inferring the
// shard lock at entry from noteFlushed's holds annotation. (No holds
// annotation here: the shard lock is tolerated, not required — activateHead
// calls with no lock held.)
func (e *Engine) completeCheckpoint(cp int64) {
	if e.cfg.RetainCheckpoints >= 2 {
		// The outgoing checkpoint becomes the retained previous one.
		// Ordering matters for crash safety: persist prev BEFORE advancing
		// cur. A crash between the stores leaves prev == cur, which
		// recovery reads as "one checkpoint retained" — safe; the reverse
		// order could leave prev pointing at records already reclaimed.
		prev := e.completedCkpt.Load()
		if err := e.arena.SetPrevCheckpointedBatch(prev); err != nil {
			e.maintErrs.set(err)
			return
		}
		e.prevCompleted.Store(prev)
	}
	if err := e.arena.SetCheckpointedBatch(cp); err != nil {
		e.maintErrs.set(err)
		return
	}
	e.ckptMu.Lock()
	if len(e.ckptQueue) > 0 && e.ckptQueue[0] == cp {
		e.ckptQueue = e.ckptQueue[1:]
	}
	e.ckptActive = -1
	e.ckptFlushList = e.ckptFlushList[:0]
	e.ckptMu.Unlock()
	e.completedCkpt.Store(cp)
	e.ckptsDone.Add(1)
	e.reclaim()
}

// finalizeCheckpoints guarantees checkpoint progress even when the cache is
// so effective that evictions are rare (the natural completion path of
// Alg. 2 relies on eviction pressure). It drains the memoized flush list of
// the active checkpoint from its tail, one run of same-shard entries at a
// time (the activation scan memoizes shard by shard): the run's flushes are
// queued under that shard's lock and persisted as one group commit, in the
// order entry-by-entry popping would have flushed them. At most
// finalizerBudget flushes per call; leftover work resumes next batch.
// Callers hold no shard lock.
func (e *Engine) finalizeCheckpoints() error {
	budget := finalizerBudget
	var run []*entry
	for budget > 0 {
		cp := e.activateHead()
		if cp < 0 {
			return nil
		}
		e.ckptMu.Lock()
		if e.ckptActivating || e.ckptActive != cp {
			// Another thread is mid-activation or completed cp between our
			// activateHead and here; let the next finalizer continue.
			e.ckptMu.Unlock()
			return nil
		}
		n := len(e.ckptFlushList)
		if n == 0 {
			// Another finalizer is committing the last runs, or (cannot
			// happen) nothing is left: WaitCheckpoints reports that.
			e.ckptMu.Unlock()
			return nil
		}
		// An entry's shard is read from sid, fixed when the entry was made: an
		// entry that left the cache since the scan may be some other key's by
		// now (of the same shard), written under a lock this path does not hold.
		sid := e.ckptFlushList[n-1].sid
		s := e.shards[sid]
		lo := n - 1
		for lo > 0 && n-lo < budget && e.ckptFlushList[lo-1].sid == sid {
			lo--
		}
		// Copied out: once cp completes, the next activation reuses the list.
		run = append(run[:0], e.ckptFlushList[lo:]...)
		e.ckptFlushList = e.ckptFlushList[:lo]
		e.ckptDraining.Add(1)
		e.ckptMu.Unlock()

		s.mu.Lock()
		for i := len(run) - 1; i >= 0; i-- {
			// Skip entries already persisted (or updated past the checkpoint
			// and persisted by flush-before-overwrite); an entry persisted,
			// evicted and reused since is not pending either, as the activation
			// that counted it came before its reuse.
			if run[i].ckptPending {
				s.queueFlushLocked(run[i])
				budget--
			}
		}
		err := s.commitLocked()
		s.mu.Unlock()
		e.ckptDraining.Add(-1)
		if err != nil {
			return err
		}
	}
	return nil
}

// reclaim frees retired PMem records that no recoverable checkpoint can
// need. A retired record (old version v_old superseded by v_new) is needed
// by a checkpoint cp iff v_old <= cp < v_new; the checkpoints that matter
// are the last completed one (a crash at any moment must recover to it),
// every queued one, and any future request (which is at least as new as the
// last sealed batch, because RequestCheckpoint only accepts the latest
// sealed batch) — the rule the arena's Reclaim applies to the sealed batch
// and the pins it is handed. Takes no shard locks, so it is safe from any
// context.
//
// oevet:coldpath runs per batch boundary, per completed checkpoint and when the arena is full, never per record; its pin list lives on the stack unless more than six checkpoints are queued
func (e *Engine) reclaim() {
	// The pinned checkpoints, gathered on the stack: the completed one (even
	// when it is -1: an entry born in batch 0 carries version -1), the
	// retained previous one, and every queued request.
	var buf [8]int64
	pins := append(buf[:0], e.completedCkpt.Load())
	if prev := e.prevCompleted.Load(); prev >= 0 {
		pins = append(pins, prev)
	}
	e.ckptMu.Lock()
	pins = append(pins, e.ckptQueue...)
	e.ckptMu.Unlock()
	e.arena.Reclaim(e.lastEnded.Load(), pins)
}
