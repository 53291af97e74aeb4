package main

import (
	"runtime"
	"time"

	"openembedding/internal/device"
	"openembedding/internal/obs"
	"openembedding/internal/pmem"
	"openembedding/internal/psengine"
	"openembedding/internal/simclock"
)

// metricDef is one named metric; BENCHMARK.json lists the same names and
// units (bench_test.go holds the two together).
type metricDef struct {
	Name, Unit, Better string
}

// e2eMetrics are what a user of the system sees. Every workload reports
// every one of them for its primary operation (see workloadList): a
// training step, a PS batch or a gather.
var e2eMetrics = []metricDef{
	{"ops_per_s", "1/s", "higher"},
	{"op_ms_p50", "ms", "lower"},
	{"op_ms_p90", "ms", "lower"},
	{"ps_wait_ms_p50", "ms", "lower"},
	{"peak_rss_mb", "MB", "lower"},
	{"setup_s", "s", "lower"},
}

// layerMetrics come from the traced run. A metric that does not apply to a
// workload reads 0 there.
var layerMetrics = []metricDef{
	{"train.pull_phase_ms", "ms", "lower"},
	{"train.push_phase_ms", "ms", "lower"},
	{"train.compute_ms", "ms", "lower"},
	{"train.keys_per_step", "count", "lower"},
	{"cluster.pull_us", "us", "lower"},
	{"cluster.push_us", "us", "lower"},
	{"cluster.pullbags_us", "us", "lower"},
	{"cluster.self_us", "us", "lower"},
	{"cluster.fanout_width", "count", "lower"},
	{"cluster.straggler_us", "us", "lower"},
	{"rpc.roundtrip_pull_us", "us", "lower"},
	{"rpc.roundtrip_push_us", "us", "lower"},
	{"rpc.roundtrip_pullbag_us", "us", "lower"},
	{"rpc.wire_self_us", "us", "lower"},
	{"rpc.req_bytes", "B/op", "lower"},
	{"rpc.resp_bytes", "B/op", "lower"},
	{"rpc.retries", "count", "lower"},
	{"rpc.redials", "count", "lower"},
	{"serve.handler_us", "us", "lower"},
	{"serve.self_us", "us", "lower"},
	{"serve.snap_hit_rate", "ratio", "higher"},
	{"serve.dram_fallback_rate", "ratio", "lower"},
	{"serve.pmem_fallback_rate", "ratio", "lower"},
	{"serve.refresh_ms", "ms", "lower"},
	{"serve.shed", "count", "lower"},
	{"core.pull_us", "us", "lower"},
	{"core.push_us", "us", "lower"},
	{"core.end_pull_phase_us", "us", "lower"},
	{"core.end_batch_us", "us", "lower"},
	{"core.maint_drain_us", "us", "lower"},
	{"core.serve_read_ns", "ns/key", "lower"},
	{"core.miss_rate", "ratio", "lower"},
	{"core.evictions_per_batch", "count", "lower"},
	{"core.pmem_reads_per_key", "ratio", "lower"},
	{"core.pmem_writes_per_key", "ratio", "lower"},
	{"core.ckpts_done", "count", "higher"},
	{"core.ckpt_batch_overhead_ms", "ms", "lower"},
	{"pmem.read_ns", "ns", "lower"},
	{"pmem.write_ns", "ns", "lower"},
	{"pmem.virtual_read_ms_per_batch", "ms", "lower"},
	{"pmem.virtual_write_ms_per_batch", "ms", "lower"},
	{"proc.allocs_per_op", "count", "lower"},
	{"proc.gc_cycles", "count", "lower"},
	{"proc.gc_pause_ms", "ms", "lower"},
	{"trace.overhead_pct", "%", "lower"},
	{"trace.unattributed_pct", "%", "lower"},
}

// counters is everything read as a delta over the traced phase.
type counters struct {
	reg   obs.Snapshot
	stats psengine.Stats
	meter simclock.Snapshot
	mem   runtime.MemStats
}

func readCounters(s *scenario) counters {
	var c counters
	c.reg = s.ly.reg.Snapshot()
	for _, e := range s.engines {
		st := e.Stats()
		c.stats.Hits += st.Hits
		c.stats.Misses += st.Misses
		c.stats.PMemReads += st.PMemReads
		c.stats.PMemWrites += st.PMemWrites
		c.stats.Evictions += st.Evictions
		c.stats.CheckpointsDone += st.CheckpointsDone
	}
	c.meter = s.ly.meter.Snapshot()
	runtime.ReadMemStats(&c.mem)
	return c
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// pmemCost times the arena's verified record write and read on a scratch
// arena with the engine's record size. The engine reaches the arena through
// no interface, so this is a replay of the rung: multiply by the per-batch
// read and write counts for pmem's share of a batch. The slots are written
// once before timing (a live arena's pages are mapped) and then visited in
// a scattered order, as evictions and misses visit them.
func pmemCost(store psengine.Config) (read, write time.Duration, err error) {
	store = store.WithDefaults()
	payload := pmem.FloatBytes(store.EntryFloats())
	slots := store.Capacity * arenaFactor
	arena, err := pmem.NewArena(pmem.NewDevice(pmem.ArenaLayout(payload, slots), device.NewTimedPMem(nil)), payload, slots)
	if err != nil {
		return 0, 0, err
	}
	const n = 1 << 15
	buf := make([]byte, payload)
	ids := make([]uint32, n)
	for i := range ids {
		if ids[i], err = arena.Alloc(); err != nil {
			return 0, 0, err
		}
		if err = arena.WriteRecordVerified(ids[i], uint64(i), 1, buf); err != nil {
			return 0, 0, err
		}
	}
	const stride = 7919 // prime, so i*stride%n visits every slot once
	start := time.Now()
	for i := 0; i < n; i++ {
		j := i * stride % n
		if err = arena.WriteRecordVerified(ids[j], uint64(j), 2, buf); err != nil {
			return 0, 0, err
		}
	}
	write = time.Since(start) / n
	start = time.Now()
	for i := 0; i < n; i++ {
		j := i * stride % n
		if err = arena.ReadPayloadVerified(ids[j], uint64(j), buf); err != nil {
			return 0, 0, err
		}
	}
	read = time.Since(start) / n
	return read, write, nil
}

// layerValues turns the traced phase's observations into the per-layer
// metrics. ops and batches are the primary operations and the PS batches
// the phase completed.
func layerValues(s *scenario, before, after counters, b budget, ops, batches int, pmemRead, pmemWrite time.Duration, overheadPct float64) map[string]float64 {
	tr := s.ly.tr
	tr.mu.Lock()
	durs := tr.durs
	tr.mu.Unlock()
	p50 := func(name string, unit time.Duration) float64 { return p50of(durs[name], unit) }
	cnt := func(name string) float64 { return float64(after.reg.Counters[name] - before.reg.Counters[name]) }
	histMean := func(name string) float64 {
		a, bf := after.reg.Histograms[name], before.reg.Histograms[name]
		return ratio(float64(a.Sum-bf.Sum), float64(a.Count-bf.Count))
	}
	st := func(f func(psengine.Stats) int64) float64 { return float64(f(after.stats) - f(before.stats)) }
	lookups := st(func(s psengine.Stats) int64 { return s.Hits + s.Misses })
	meter := after.meter.Sub(before.meter)
	served := cnt("serve_keys")
	v := map[string]float64{
		"train.pull_phase_ms": p50("train.pull_phase", time.Millisecond),
		"train.push_phase_ms": p50("train.push_phase", time.Millisecond),
		"train.compute_ms":    p50("train.compute", time.Millisecond),
		"train.keys_per_step": p50("train.keys_per_step", 1),

		"cluster.pull_us":      p50("cluster.pull", time.Microsecond),
		"cluster.push_us":      p50("cluster.push", time.Microsecond),
		"cluster.pullbags_us":  p50("cluster.pullbags", time.Microsecond),
		"cluster.self_us":      b.RungSelfUs["cluster"],
		"cluster.fanout_width": histMean("cluster_fanout_width"),
		"cluster.straggler_us": histMean("cluster_straggler_ns") / 1e3,

		"rpc.roundtrip_pull_us":    p50("rpc.pull", time.Microsecond),
		"rpc.roundtrip_push_us":    p50("rpc.push", time.Microsecond),
		"rpc.roundtrip_pullbag_us": p50("rpc.pullbag", time.Microsecond),
		"rpc.wire_self_us":         b.RungSelfUs["rpc"],
		"rpc.req_bytes":            ratio(cnt("rpc_client_bytes_out"), float64(ops)),
		"rpc.resp_bytes":           ratio(cnt("rpc_client_bytes_in"), float64(ops)),
		"rpc.retries":              cnt("rpc_client_retries"),
		"rpc.redials":              cnt("rpc_client_redials"),

		"serve.handler_us":         p50("serve.handler", time.Microsecond),
		"serve.self_us":            b.RungSelfUs["serve"],
		"serve.snap_hit_rate":      ratio(cnt("serve_snap_hits"), served),
		"serve.dram_fallback_rate": ratio(cnt("serve_dram_fallback"), served),
		"serve.pmem_fallback_rate": ratio(cnt("serve_pmem_fallback"), served),
		"serve.refresh_ms":         p50("serve.refresh", time.Millisecond),
		"serve.shed":               cnt("serve_shed"),

		"core.pull_us":                p50("core.pull", time.Microsecond),
		"core.push_us":                p50("core.push", time.Microsecond),
		"core.end_pull_phase_us":      p50("core.end_pull_phase", time.Microsecond),
		"core.end_batch_us":           p50("core.end_batch", time.Microsecond),
		"core.maint_drain_us":         p50("core.maint_drain", time.Microsecond),
		"core.serve_read_ns":          p50("core.serve_read", time.Nanosecond) / serveBags,
		"core.miss_rate":              ratio(st(func(s psengine.Stats) int64 { return s.Misses }), lookups),
		"core.evictions_per_batch":    ratio(st(func(s psengine.Stats) int64 { return s.Evictions }), float64(batches)),
		"core.pmem_reads_per_key":     ratio(st(func(s psengine.Stats) int64 { return s.PMemReads }), lookups),
		"core.pmem_writes_per_key":    ratio(st(func(s psengine.Stats) int64 { return s.PMemWrites }), lookups),
		"core.ckpts_done":             st(func(s psengine.Stats) int64 { return s.CheckpointsDone }),
		"core.ckpt_batch_overhead_ms": 0,

		"pmem.read_ns":                    float64(pmemRead.Nanoseconds()),
		"pmem.write_ns":                   float64(pmemWrite.Nanoseconds()),
		"pmem.virtual_read_ms_per_batch":  ratio(ms(meter.Total(simclock.PMemRead)), float64(batches)),
		"pmem.virtual_write_ms_per_batch": ratio(ms(meter.Total(simclock.PMemWrite)), float64(batches)),

		"proc.allocs_per_op": ratio(float64(after.mem.Mallocs-before.mem.Mallocs), float64(ops)),
		"proc.gc_cycles":     float64(after.mem.NumGC - before.mem.NumGC),
		"proc.gc_pause_ms":   float64(after.mem.PauseTotalNs-before.mem.PauseTotalNs) / 1e6,

		"trace.overhead_pct":     overheadPct,
		"trace.unattributed_pct": 100 * ratio(b.Unattrib, b.E2EUs),
	}
	if len(durs["bench.batch_ckpt"]) > 0 && len(durs["bench.batch_plain"]) > 0 {
		v["core.ckpt_batch_overhead_ms"] = p50("bench.batch_ckpt", time.Millisecond) - p50("bench.batch_plain", time.Millisecond)
	}
	return v
}
