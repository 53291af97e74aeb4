// Package obs is the repository's low-overhead observability subsystem:
// one registry per process or component that holds atomic counters, gauges
// and fixed-bucket log-scale latency histograms, plus a bounded span ring
// dumpable as Chrome trace_event JSON (span.go), all on one clock; and the
// HTTP exporter (http.go).
//
// Design constraints, in order:
//
//  1. The record path is allocation-free and lock-free: Counter, Gauge and
//     Histogram update through sync/atomic only. Call sites resolve their
//     metric handles once at construction time, so recording never touches
//     the registry mutex. The registry mutex guards only the name→metric
//     maps and carries oevet:lockrank 4 — strictly below every engine lock
//     (core.shard.mu is rank 10) — so obs can never participate in an
//     engine deadlock; in practice no engine lock is ever held around a
//     registry call.
//
//  2. Everything is nil-safe. A nil *Registry hands out nil metric handles,
//     and every method on a nil handle is a no-op, so instrumented code
//     needs no "is obs on?" branches: the disabled cost is a nil check.
//
//  3. Timestamps are cheap but not free (~40ns per clock read on a server
//     core), so the hottest paths (engine Pull) sample their latency
//     recording; see the overhead budget in DESIGN.md §9.
//
// The deterministic packages (internal/core, internal/sim,
// internal/experiments) must not read the wall clock themselves; they take
// timestamps through Registry.Now / EngineObs.Now, which keeps the
// determinism analyzer's contract intact because the readings are purely
// observational — they are exported, never fed back into engine behavior —
// and the simulated experiments run with obs disabled.
package obs

import (
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing atomic counter.
type Counter struct{ v atomic.Int64 }

// Add increments the counter by n. Safe on a nil receiver (no-op).
func (c *Counter) Add(n int64) {
	if c == nil {
		return
	}
	c.v.Add(n)
}

// Value returns the current count (0 on a nil receiver).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is an instantaneous atomic value (queue depth, open connections,
// signed skew).
type Gauge struct{ v atomic.Int64 }

// Set stores v. Safe on a nil receiver (no-op).
func (g *Gauge) Set(v int64) {
	if g == nil {
		return
	}
	g.v.Store(v)
}

// Add adjusts the gauge by delta (may be negative). Safe on a nil receiver.
func (g *Gauge) Add(delta int64) {
	if g == nil {
		return
	}
	g.v.Add(delta)
}

// Value returns the current value (0 on a nil receiver).
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// Registry owns named metrics and the span ring. Handles are resolved once
// (Counter, Gauge, Histogram) and then recorded through without any shared
// lock; spans (Start) are timed on the same clock as the histograms.
type Registry struct {
	epoch time.Time

	// mu guards only the name→metric maps below; it is never held while
	// recording and ranks below every engine lock so a registry call can
	// never invert the engine lock hierarchy.
	//
	// oevet:lockrank obs.registry.mu 4
	mu       sync.Mutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram

	// spanMu guards the span ring (span.go). Like mu it is a leaf ranked
	// below every engine lock, and span bookkeeping never acquires
	// anything else while holding it.
	//
	// oevet:lockrank obs.registry.spanMu 5
	spanMu  sync.Mutex
	ring    []SpanRecord // grows to DefaultTraceCapacity, then wraps
	next    int          // oldest span once the ring is full, else 0
	dropped int64        // spans overwritten
}

// NewRegistry returns an empty registry whose clock epoch is "now".
func NewRegistry() *Registry {
	return &Registry{
		epoch:    time.Now(),
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		hists:    make(map[string]*Histogram),
	}
}

// Now returns the time elapsed since the registry was created, the
// timestamp base for every latency measurement and span recorded into it.
// A nil registry reads no clock and returns 0.
func (r *Registry) Now() time.Duration {
	if r == nil {
		return 0
	}
	return time.Since(r.epoch)
}

// Counter returns (creating if needed) the named counter, or nil on a nil
// registry.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	c := r.counters[name]
	if c == nil {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns (creating if needed) the named gauge, or nil on a nil
// registry.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	g := r.gauges[name]
	if g == nil {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns (creating if needed) the named histogram, or nil on a
// nil registry.
func (r *Registry) Histogram(name string) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	h := r.hists[name]
	if h == nil {
		h = &Histogram{}
		r.hists[name] = h
	}
	return h
}

// Snapshot is a point-in-time copy of every metric, JSON-encodable for the
// /metrics.json exporter and the oectl scraper.
type Snapshot struct {
	UptimeNS   int64                   `json:"uptime_ns"`
	Counters   map[string]int64        `json:"counters"`
	Gauges     map[string]int64        `json:"gauges"`
	Histograms map[string]HistSnapshot `json:"histograms"`
}

// Snapshot captures every registered metric. Nil-safe (returns empty maps).
func (r *Registry) Snapshot() Snapshot {
	s := Snapshot{
		Counters:   map[string]int64{},
		Gauges:     map[string]int64{},
		Histograms: map[string]HistSnapshot{},
	}
	if r == nil {
		return s
	}
	s.UptimeNS = int64(r.Now())
	r.mu.Lock()
	counters := make(map[string]*Counter, len(r.counters))
	for k, v := range r.counters {
		counters[k] = v
	}
	gauges := make(map[string]*Gauge, len(r.gauges))
	for k, v := range r.gauges {
		gauges[k] = v
	}
	hists := make(map[string]*Histogram, len(r.hists))
	for k, v := range r.hists {
		hists[k] = v
	}
	r.mu.Unlock()
	for k, v := range counters {
		s.Counters[k] = v.Value()
	}
	for k, v := range gauges {
		s.Gauges[k] = v.Value()
	}
	for k, v := range hists {
		s.Histograms[k] = v.Snapshot()
	}
	return s
}

// WriteText renders the snapshot in a flat, Prometheus-compatible text
// form: one "name value" line per scalar, histograms expanded into
// _count/_sum/_max/_p50/_p95/_p99 series, all sorted by name.
func (s Snapshot) WriteText(w io.Writer) error {
	lines := make([]string, 0, len(s.Counters)+len(s.Gauges)+6*len(s.Histograms)+1)
	lines = append(lines, fmt.Sprintf("obs_uptime_ns %d", s.UptimeNS))
	for k, v := range s.Counters {
		lines = append(lines, fmt.Sprintf("%s %d", k, v))
	}
	for k, v := range s.Gauges {
		lines = append(lines, fmt.Sprintf("%s %d", k, v))
	}
	for k, h := range s.Histograms {
		lines = append(lines,
			fmt.Sprintf("%s_count %d", k, h.Count),
			fmt.Sprintf("%s_sum %d", k, h.Sum),
			fmt.Sprintf("%s_max %d", k, h.Max),
			fmt.Sprintf("%s_p50 %d", k, h.P50),
			fmt.Sprintf("%s_p95 %d", k, h.P95),
			fmt.Sprintf("%s_p99 %d", k, h.P99))
	}
	sort.Strings(lines)
	for _, l := range lines {
		if _, err := fmt.Fprintln(w, l); err != nil {
			return err
		}
	}
	return nil
}

// WriteSummary renders the snapshot for humans (oectl stats -obs): one line
// per histogram with percentiles, then gauges and counters, sorted within
// each section. Names ending in _ns format as durations, _bytes as sizes.
func (s Snapshot) WriteSummary(w io.Writer) error {
	if _, err := fmt.Fprintf(w, "uptime %v\n", time.Duration(s.UptimeNS).Round(time.Millisecond)); err != nil {
		return err
	}
	names := make([]string, 0, len(s.Histograms))
	for k := range s.Histograms {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		h := s.Histograms[k]
		if _, err := fmt.Fprintf(w, "%-26s n=%-8d p50=%-10s p95=%-10s p99=%-10s max=%s\n",
			k, h.Count, fmtMetric(k, h.P50), fmtMetric(k, h.P95), fmtMetric(k, h.P99), fmtMetric(k, h.Max)); err != nil {
			return err
		}
	}
	names = names[:0]
	for k := range s.Gauges {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		if _, err := fmt.Fprintf(w, "%-26s %s\n", k, fmtMetric(k, s.Gauges[k])); err != nil {
			return err
		}
	}
	names = names[:0]
	for k := range s.Counters {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		if _, err := fmt.Fprintf(w, "%-26s %s\n", k, fmtMetric(k, s.Counters[k])); err != nil {
			return err
		}
	}
	return nil
}

// fmtMetric formats a metric value by naming convention: _ns suffixes are
// durations, _bytes (or bytes_*) suffixes are sizes, the rest plain counts.
func fmtMetric(name string, v int64) string {
	switch {
	case strings.HasSuffix(name, "_ns"):
		d := time.Duration(v)
		switch {
		case d >= time.Second || d <= -time.Second:
			return d.Round(time.Millisecond).String()
		case d >= time.Millisecond || d <= -time.Millisecond:
			return d.Round(time.Microsecond).String()
		default:
			return d.String()
		}
	case strings.Contains(name, "bytes"):
		switch {
		case v >= 1<<30:
			return fmt.Sprintf("%.2fGiB", float64(v)/(1<<30))
		case v >= 1<<20:
			return fmt.Sprintf("%.2fMiB", float64(v)/(1<<20))
		case v >= 1<<10:
			return fmt.Sprintf("%.2fKiB", float64(v)/(1<<10))
		default:
			return fmt.Sprintf("%dB", v)
		}
	default:
		return fmt.Sprintf("%d", v)
	}
}
