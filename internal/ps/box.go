package ps

import (
	"fmt"
	"sync"

	"openembedding/internal/psengine"
)

// engineBox is the swappable engine slot a restartable node serves through:
// Crash/Restart/rollback replace the engine underneath the running RPC
// server without re-plumbing it. The RWMutex makes the swap safe against
// in-flight requests — readers (every request) share, the swap excludes.
// Requests that race a swap hit the closed old engine and fail with
// psengine.ErrClosed, which fault-tolerant clients treat as retryable once
// the transport drops; fenced clients are rejected by epoch anyway.
type engineBox struct {
	mu  sync.RWMutex
	eng psengine.Engine
}

func newEngineBox(eng psengine.Engine) *engineBox { return &engineBox{eng: eng} }

func (b *engineBox) get() psengine.Engine {
	b.mu.RLock()
	defer b.mu.RUnlock()
	return b.eng
}

func (b *engineBox) set(eng psengine.Engine) {
	b.mu.Lock()
	b.eng = eng
	b.mu.Unlock()
}

// psengine.Engine forwarding.

func (b *engineBox) Name() string { return b.get().Name() }
func (b *engineBox) Dim() int     { return b.get().Dim() }
func (b *engineBox) Pull(batch int64, keys []uint64, dst []float32) error {
	return b.get().Pull(batch, keys, dst)
}
func (b *engineBox) EndPullPhase(batch int64) { b.get().EndPullPhase(batch) }
func (b *engineBox) WaitMaintenance()         { b.get().WaitMaintenance() }
func (b *engineBox) Push(batch int64, keys []uint64, grads []float32) error {
	return b.get().Push(batch, keys, grads)
}
func (b *engineBox) EndBatch(batch int64) error          { return b.get().EndBatch(batch) }
func (b *engineBox) RequestCheckpoint(batch int64) error { return b.get().RequestCheckpoint(batch) }
func (b *engineBox) CompletedCheckpoint() int64          { return b.get().CompletedCheckpoint() }
func (b *engineBox) Stats() psengine.Stats               { return b.get().Stats() }
func (b *engineBox) Close() error                        { return b.get().Close() }

// AdvanceCheckpoints forwards the optional checkpoint-progress hook when
// the boxed engine supports it, so the RPC server's type assertion sees it
// through the box.
func (b *engineBox) AdvanceCheckpoints() error {
	if adv, ok := b.get().(interface{ AdvanceCheckpoints() error }); ok {
		return adv.AdvanceCheckpoints()
	}
	return nil
}

// Scrub forwards the optional integrity-scrub hook to the boxed engine.
// The boxed engine's scrub may restore or fence entries (state loss), and
// the obligation to fence the node epoch passes through the box to the
// caller — the dynamic dispatch below hides core.Engine.Scrub's own
// fence-need contract from the analyzer, so it is restated here.
//
// migrator is the optional live-resharding hook set (DESIGN.md §15); only
// the pmem-oe engine implements it.
type migrator interface {
	ExportRange(match func(key uint64) bool, since int64, afterKey uint64, max int) ([]psengine.MigEntry, bool, error)
	AdoptEntries(entries []psengine.MigEntry) error
	DropRange(match func(key uint64) bool) (int, error)
}

// ExportRange forwards the migration export hook to the boxed engine.
func (b *engineBox) ExportRange(match func(key uint64) bool, since int64, afterKey uint64, max int) ([]psengine.MigEntry, bool, error) {
	if m, ok := b.get().(migrator); ok {
		return m.ExportRange(match, since, afterKey, max)
	}
	return nil, false, fmt.Errorf("ps: engine %q does not support migration", b.Name())
}

// AdoptEntries forwards the migration adopt hook to the boxed engine. The
// caller fences the node epoch afterwards (ps.Node.adoptRPC); the dynamic
// dispatch hides core.Engine.AdoptEntries' own fence-need contract from
// the analyzer, so it is restated here.
//
// oevet:fence-need
func (b *engineBox) AdoptEntries(entries []psengine.MigEntry) error {
	if m, ok := b.get().(migrator); ok {
		return m.AdoptEntries(entries)
	}
	return fmt.Errorf("ps: engine %q does not support migration", b.Name())
}

// DropRange forwards the migration drop hook to the boxed engine. Fence
// contract restated across the dynamic dispatch, as for AdoptEntries.
//
// oevet:fence-need
func (b *engineBox) DropRange(match func(key uint64) bool) (int, error) {
	if m, ok := b.get().(migrator); ok {
		return m.DropRange(match)
	}
	return 0, fmt.Errorf("ps: engine %q does not support migration", b.Name())
}

// oevet:fence-need
func (b *engineBox) Scrub() (psengine.ScrubReport, error) {
	if s, ok := b.get().(interface {
		Scrub() (psengine.ScrubReport, error)
	}); ok {
		return s.Scrub()
	}
	return psengine.ScrubReport{}, fmt.Errorf("ps: engine %q does not support scrubbing", b.Name())
}
