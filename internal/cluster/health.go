package cluster

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"openembedding/internal/obs"
	"openembedding/internal/rpc"
)

// Node health (DESIGN.md §16): one table answers "should a serving read
// ask node n?", and counts decide it, never a clock:
//
//   - a transport failure or timeout (rpc.IsRetryable) is a failed
//     exchange, and downAfter of them in a row make the node down;
//     a busy, remote or epoch answer is an answer, not a failure;
//   - any answered exchange makes the node up again;
//   - while a node is down, bagNode skips its owner read, and the share
//     fails at once with errSkipped. Whoever watches a down node brings it
//     back: once a Probe round has run since it went down only probes
//     do, and until then every halfOpenEvery-th skipped read is sent to
//     the owner as a half-open probe.
//
// The exchanges are owner reads (bagNode) and Probe pings; the
// training path consults and feeds nothing. Health is a pure function of
// the sequence of exchange outcomes, so a seeded soak replays its
// transitions with the run. Join and Leave reset the table: indexes moved.
const (
	downAfter     = 3
	halfOpenEvery = 8
	// probeTimeout is every deadline of a probe connection: a probe that
	// outlives its round has already failed.
	probeTimeout = 100 * time.Millisecond
)

// errSkipped is a skipped owner read's error: the node is down and was not
// asked. It is an rpc.ErrUnavailable, as the failures that took the node
// down were, and PullBags attributes it to the node like any other.
var errSkipped = fmt.Errorf("owner down, not asked: %w", rpc.ErrUnavailable)

// nodeHealth is one node's row. While the node is up, a read of it is one
// atomic load and an answered exchange another.
type nodeHealth struct {
	fails   atomic.Int32  // consecutive failed exchanges; downAfter or more is down
	probed  atomic.Bool   // a Probe round has run since the node went down
	skipped atomic.Uint32 // owner reads skipped since the node went down
}

// health is the table, index-aligned with Client.nodes, and its transition
// metrics, which outlive a reset.
type health struct {
	nodes      []nodeHealth
	suspicions *obs.Counter // cluster_suspicions: up→down transitions
	downNodes  *obs.Gauge   // cluster_suspected_nodes: nodes down now
}

// reset gives the table n rows, all up.
func (h *health) reset(n int) {
	for i := range h.nodes {
		if h.down(i) {
			h.downNodes.Add(-1)
		}
	}
	h.nodes = make([]nodeHealth, n)
}

func (h *health) down(n int) bool { return h.nodes[n].fails.Load() >= downAfter }

// skip reports whether a serving read should skip node n's owner read.
func (h *health) skip(n int) bool {
	nh := &h.nodes[n]
	if nh.fails.Load() < downAfter {
		return false
	}
	return nh.probed.Load() || nh.skipped.Add(1)%halfOpenEvery != 0
}

// record counts one exchange with node n that ended in err.
func (h *health) record(n int, err error) {
	nh := &h.nodes[n]
	if err != nil && rpc.IsRetryable(err) {
		if nh.fails.Add(1) == downAfter {
			nh.probed.Store(false)
			nh.skipped.Store(0)
			h.suspicions.Add(1)
			h.downNodes.Add(1)
		}
		return
	}
	if nh.fails.Load() != 0 && nh.fails.Swap(0) >= downAfter {
		h.downNodes.Add(-1)
	}
}

// probe counts one probe ping of node n that ended in err: a Probe round
// has now run since the node went down, if it is down.
func (h *health) probe(n int, err error) {
	h.record(n, err)
	h.nodes[n].probed.Store(true)
}

// install makes r the ring and resets node health to its membership, under
// healthMu, so a probe round sees the epoch, the probe connections and the
// table of one membership (dial, Join, Leave).
func (c *Client) install(r *Ring) {
	c.healthMu.Lock()
	defer c.healthMu.Unlock()
	c.ring.Store(r)
	c.health.reset(len(c.addrs))
	c.resetProbes(c.addrs)
}

// resetProbes closes the probe connections; the next round dials addrs.
// Caller holds healthMu.
func (c *Client) resetProbes(addrs []string) {
	for _, p := range c.probes {
		if p != nil {
			p.Close()
		}
	}
	c.probes, c.probeAddrs = nil, addrs
}

// Down reports whether node n is down: its last downAfter exchanges
// failed and none has answered since.
func (c *Client) Down(n int) bool { return c.health.down(n) }

// Probe runs one health round: every node is pinged in parallel on its
// own probe connection, and each outcome is one exchange in the table.
// The first round dials the probe connections, so a client nobody probes
// holds none. Deterministic soaks call Probe between steps; wall-clock
// deployments use StartProber.
func (c *Client) Probe() { c.recordRound(c.pingRound()) }

// pingRound pings every node, dialing the probe connections if this is the
// membership's first round, and returns the outcomes with the epoch they
// were taken on.
func (c *Client) pingRound() (epoch int64, probes []*rpc.Client, errs []error) {
	c.healthMu.Lock()
	if c.probes == nil {
		c.probes = make([]*rpc.Client, len(c.probeAddrs))
		for n, a := range c.probeAddrs {
			// A probe connection that cannot even be set up leaves its
			// node unprobed; its reads speak for it.
			c.probes[n], _ = c.dialProbe(a, n)
		}
	}
	probes, epoch = c.probes, c.Epoch()
	c.healthMu.Unlock()
	errs = make([]error, len(probes))
	eachNode(len(probes), func(i int) bool { return probes[i] != nil }, func(i int) error {
		errs[i] = probes[i].Ping()
		return nil
	})
	return epoch, probes, errs
}

// recordRound records a probe round's outcomes — unless Join or Leave
// changed the membership while it was in flight: its indexes would name
// other nodes now.
func (c *Client) recordRound(epoch int64, probes []*rpc.Client, errs []error) {
	c.healthMu.Lock()
	defer c.healthMu.Unlock()
	if c.Epoch() != epoch {
		return
	}
	for n, err := range errs {
		if probes[n] != nil {
			c.health.probe(n, err)
		}
	}
}

// dialProbe opens node n's probe connection: its own injector stream
// ("node<i>/probe", so probe traffic never perturbs the data connections'
// deterministic fault streams), single attempts, probeTimeout as every
// deadline, and no metrics.
func (c *Client) dialProbe(addr string, n int) (*rpc.Client, error) {
	ro := c.dialOpts.RPC
	ro.Label = fmt.Sprintf("node%d/probe", n)
	ro.Retry = rpc.RetryPolicy{MaxAttempts: 1}
	ro.Obs = nil // probe RTTs would skew the data-path client metrics
	ro.DialTimeout, ro.ReadTimeout, ro.WriteTimeout = probeTimeout, probeTimeout, probeTimeout
	return rpc.DialOpts(addr, ro)
}

// StartProber runs Probe every interval on a background goroutine until
// the returned stop function is called; Close stops it too.
func (c *Client) StartProber(interval time.Duration) (stop func()) {
	done := make(chan struct{})
	var once sync.Once
	stop = func() { once.Do(func() { close(done) }) }
	c.healthMu.Lock()
	c.proberStop = stop
	c.healthMu.Unlock()
	go func() {
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			select {
			case <-done:
				return
			case <-t.C:
				c.Probe()
			}
		}
	}()
	return stop
}
