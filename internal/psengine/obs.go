package psengine

import (
	"fmt"
	"time"

	"openembedding/internal/obs"
)

// EngineObs is the canonical per-engine metric set, shared by every backend
// so oectl and the exporters see one naming scheme regardless of engine:
//
//	engine_pull_ns          pull latency histogram (sampled on hot engines)
//	engine_push_ns          push latency histogram
//	engine_miss_service_ns  time to serve one cache miss from PMem (the
//	                        core engine samples it with pull, 1-in-8)
//	engine_maint_queue_depth  queued maintenance tasks (gauge)
//	engine_maint_drain_ns   one shard maintenance drain
//	engine_maint_helped     drains run by a request thread waiting for
//	                        maintenance rather than by a maintainer: of
//	                        engine_maint_drain_ns's count, the share that
//	                        was not hidden behind the compute phase
//	engine_snap_rebuild_ns  one shard's incremental republish of its serve
//	                        snapshot (the per-batch cost of serving)
//	engine_snap_recycled    incremental republishes that rewrote the spare
//	                        slab: cost in proportion to the rows dirtied
//	engine_snap_cloned      incremental republishes that had to copy the
//	                        whole slab — the first of an epoch, or a reader
//	                        still pinned the spare; a deployment where this
//	                        keeps pace with engine_snap_recycled has readers
//	                        that outlive a batch
//	engine_ckpt_stall_ns    checkpoint work a batch boundary waited out
//	engine_ckpt_flush_bytes bytes persisted for checkpoints/evictions
//	engine_evictions_shard<i> per-shard LRU evictions (via ShardEvictions)
//	engine_corrupt_serve    integrity failures detected on the serve path
//	                        (the pull fails typed instead of returning
//	                        garbage)
//	engine_recover_fallback recoveries that fell back cur→prev because the
//	                        current checkpoint header/records were corrupt
//	engine_scrub_scanned    records checksum-verified by the scrubber
//	engine_scrub_corrupt    records that failed scrub verification
//	engine_scrub_repaired   corrupt records healed in place from DRAM
//	engine_scrub_restored   corrupt records replaced by a retained
//	                        checkpointed record (requires replay)
//	engine_scrub_fenced     keys dropped for deterministic re-init
//
// All handles are resolved once here; recording is atomics-only and every
// field is nil when the registry is nil, so instrumentation points need no
// enabled/disabled branches. One engine per registry.
type EngineObs struct {
	reg *obs.Registry

	Pull        *obs.Histogram
	Push        *obs.Histogram
	MissService *obs.Histogram
	MaintDrain  *obs.Histogram
	CkptStall   *obs.Histogram
	MaintQueue  *obs.Gauge
	MaintHelped *obs.Counter
	FlushBytes  *obs.Counter

	SnapRebuild  *obs.Histogram
	SnapRecycled *obs.Counter
	SnapCloned   *obs.Counter

	CorruptServe    *obs.Counter
	RecoverFallback *obs.Counter
	ScrubScanned    *obs.Counter
	ScrubCorrupt    *obs.Counter
	ScrubRepaired   *obs.Counter
	ScrubRestored   *obs.Counter
	ScrubFenced     *obs.Counter
}

// NewEngineObs resolves the canonical engine metrics from reg. It always
// returns a usable (possibly all-no-op) value, so engines store it without
// nil checks.
func NewEngineObs(reg *obs.Registry) *EngineObs {
	m := &EngineObs{reg: reg}
	if reg == nil {
		return m
	}
	m.Pull = reg.Histogram("engine_pull_ns")
	m.Push = reg.Histogram("engine_push_ns")
	m.MissService = reg.Histogram("engine_miss_service_ns")
	m.MaintDrain = reg.Histogram("engine_maint_drain_ns")
	m.CkptStall = reg.Histogram("engine_ckpt_stall_ns")
	m.MaintQueue = reg.Gauge("engine_maint_queue_depth")
	m.MaintHelped = reg.Counter("engine_maint_helped")
	m.FlushBytes = reg.Counter("engine_ckpt_flush_bytes")
	m.SnapRebuild = reg.Histogram("engine_snap_rebuild_ns")
	m.SnapRecycled = reg.Counter("engine_snap_recycled")
	m.SnapCloned = reg.Counter("engine_snap_cloned")
	m.CorruptServe = reg.Counter("engine_corrupt_serve")
	m.RecoverFallback = reg.Counter("engine_recover_fallback")
	m.ScrubScanned = reg.Counter("engine_scrub_scanned")
	m.ScrubCorrupt = reg.Counter("engine_scrub_corrupt")
	m.ScrubRepaired = reg.Counter("engine_scrub_repaired")
	m.ScrubRestored = reg.Counter("engine_scrub_restored")
	m.ScrubFenced = reg.Counter("engine_scrub_fenced")
	return m
}

// Enabled reports whether a registry is attached.
func (m *EngineObs) Enabled() bool { return m != nil && m.reg != nil }

// Now returns the registry clock (0 when disabled). Deterministic packages
// time themselves through this instead of the time package directly; the
// readings are observational only and never influence engine behavior.
func (m *EngineObs) Now() time.Duration {
	if m == nil {
		return 0
	}
	return m.reg.Now()
}

// Start opens a span on the registry (a no-op span when disabled).
func (m *EngineObs) Start(name, cat string, tid, batch int64) obs.Span {
	if m == nil {
		return obs.Span{}
	}
	return m.reg.Start(name, cat, tid, batch)
}

// ShardEvictions resolves the eviction counter for one shard (nil when
// disabled).
func (m *EngineObs) ShardEvictions(shard int) *obs.Counter {
	if m == nil || m.reg == nil {
		return nil
	}
	return m.reg.Counter(fmt.Sprintf("engine_evictions_shard%d", shard))
}
