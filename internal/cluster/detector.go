package cluster

import (
	"sync"
	"time"

	"openembedding/internal/obs"
)

// Suspicion-based failure detection (gray failures, DESIGN.md §16).
//
// Hard failures — resets, refused dials — announce themselves; the errors
// arrive immediately and PR 9's failover handles them. Gray failures do
// not: a partitioned or persistently slow owner just goes quiet, and a
// caller that waits for the 30s read deadline to find out has already
// blown its serving latency budget. The Detector closes that gap with
// inter-arrival accrual over the MsgPing health probe stream: every
// successful probe of a node records an arrival, the recent inter-arrival
// gaps form a smoothed expectation, and a node whose silence exceeds
// Threshold × that expectation is *suspected*. Suspected owners are routed
// around (failover to replicas, then the stale tier) before any deadline
// expires.
//
// Determinism: the Detector never reads a clock. Every method takes the
// current time as an argument, and the cluster Client feeds it from an
// injectable time source — the virtual clock in soaks, the obs registry's
// monotonic clock in live deployments. Suspicion is therefore a pure
// function of the observation history (arrival times and query times), so
// a seeded chaos run that drives the virtual clock replays its suspicion
// transitions exactly.

// DetectorConfig tunes the suspicion accrual.
type DetectorConfig struct {
	// Interval is the expected gap between successful probes of a healthy
	// node — the prober's cadence. It is the floor of the smoothed
	// expectation (so one burst of fast probes cannot make the detector
	// hair-triggered) and every deadline of the probe connections.
	// Default 100ms.
	Interval time.Duration
	// Threshold is the accrual multiplier: a node is suspected when the
	// time since its last arrival exceeds Threshold × the smoothed gap.
	// Default 3.
	Threshold float64
	// Window is how many recent inter-arrival gaps the smoothed
	// expectation averages over. Default 8.
	Window int
}

func (cfg DetectorConfig) withDefaults() DetectorConfig {
	if cfg.Interval <= 0 {
		cfg.Interval = 100 * time.Millisecond
	}
	if cfg.Threshold <= 0 {
		cfg.Threshold = 3
	}
	if cfg.Window <= 0 {
		cfg.Window = 8
	}
	return cfg
}

// detNode is one node's accrual state.
type detNode struct {
	seen      bool
	suspected bool
	last      time.Duration   // arrival time of the last successful probe
	gaps      []time.Duration // ring buffer of recent inter-arrival gaps
	gi        int             // next write position in gaps
	gn        int             // gaps filled (≤ len(gaps))
}

// Detector tracks per-node suspicion. Safe for concurrent use.
type Detector struct {
	mu    sync.Mutex
	cfg   DetectorConfig
	nodes []detNode

	suspicions *obs.Counter // cluster_suspicions: alive→suspected transitions
	suspectedG *obs.Gauge   // cluster_suspected_nodes: currently suspected
}

// NewDetector returns a detector for n nodes. reg may be nil.
func NewDetector(n int, cfg DetectorConfig, reg *obs.Registry) *Detector {
	d := &Detector{cfg: cfg.withDefaults(), nodes: make([]detNode, n)}
	if reg != nil {
		d.suspicions = reg.Counter("cluster_suspicions")
		d.suspectedG = reg.Gauge("cluster_suspected_nodes")
	}
	return d
}

// Resize resets the detector for a new node count (membership changed:
// indexes shifted, so per-index accrual state is meaningless).
func (d *Detector) Resize(n int) {
	if d == nil {
		return
	}
	d.mu.Lock()
	for i := range d.nodes {
		if d.nodes[i].suspected {
			d.suspectedG.Add(-1)
		}
	}
	d.nodes = make([]detNode, n)
	d.mu.Unlock()
}

// Observe records a successful health observation of node n at time now.
// An observation always clears suspicion: the node answered.
func (d *Detector) Observe(n int, now time.Duration) {
	if d == nil {
		return
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if n < 0 || n >= len(d.nodes) {
		return
	}
	nd := &d.nodes[n]
	if nd.gaps == nil {
		nd.gaps = make([]time.Duration, d.cfg.Window)
	}
	if nd.seen {
		if gap := now - nd.last; gap > 0 {
			nd.gaps[nd.gi] = gap
			nd.gi = (nd.gi + 1) % len(nd.gaps)
			if nd.gn < len(nd.gaps) {
				nd.gn++
			}
		}
	}
	nd.seen = true
	nd.last = now
	if nd.suspected {
		nd.suspected = false
		d.suspectedG.Add(-1)
	}
}

// expectedGap returns node state nd's smoothed inter-arrival expectation:
// the mean of the recorded gap window, floored at cfg.Interval.
func (d *Detector) expectedGap(nd *detNode) time.Duration {
	if nd.gn == 0 {
		return d.cfg.Interval
	}
	var sum time.Duration
	for i := 0; i < nd.gn; i++ {
		sum += nd.gaps[i]
	}
	mean := sum / time.Duration(nd.gn)
	if mean < d.cfg.Interval {
		mean = d.cfg.Interval
	}
	return mean
}

// Suspected reports whether node n is suspected at time now: its silence
// since the last successful probe exceeds Threshold × the smoothed
// inter-arrival gap. A node never successfully observed is not suspected
// (there is no evidence either way — hard errors speak for themselves).
func (d *Detector) Suspected(n int, now time.Duration) bool {
	if d == nil {
		return false
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if n < 0 || n >= len(d.nodes) {
		return false
	}
	nd := &d.nodes[n]
	if !nd.seen {
		return false
	}
	silent := now - nd.last
	limit := time.Duration(d.cfg.Threshold * float64(d.expectedGap(nd)))
	if silent <= limit {
		return false
	}
	if !nd.suspected {
		nd.suspected = true
		d.suspicions.Add(1)
		d.suspectedG.Add(1)
	}
	return true
}

// SuspectedCount returns how many nodes are currently marked suspected
// (tests and oectl; marking happens on Suspected queries and probe
// rounds, not spontaneously).
func (d *Detector) SuspectedCount() int {
	if d == nil {
		return 0
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	n := 0
	for i := range d.nodes {
		if d.nodes[i].suspected {
			n++
		}
	}
	return n
}
