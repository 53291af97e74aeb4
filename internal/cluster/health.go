package cluster

import (
	"fmt"
	"sync/atomic"

	"openembedding/internal/obs"
	"openembedding/internal/rpc"
)

// Node health (DESIGN.md §16): one table answers "should a serving read
// ask node n?", and counts decide it, never a clock:
//
//   - a transport failure or timeout (rpc.IsRetryable) is a failed
//     exchange, and downAfter of them in a row make the node down;
//     a remote, corruption or epoch answer is an answer, not a failure;
//   - any answered exchange makes the node up again;
//   - while a node is down, bagNode skips its owner read, and the share
//     fails at once with errSkipped — except every halfOpenEvery-th
//     skipped read, which is sent to the owner as a half-open read. A down
//     node comes back through its own reads: the first half-open read it
//     answers makes it up.
//
// The exchanges are owner reads (bagNode); the training path consults and
// feeds nothing. Health is a pure function of the sequence of exchange
// outcomes, so a seeded soak replays its transitions with the run. Join and
// Leave reset the table: indexes moved.
const (
	downAfter     = 3
	halfOpenEvery = 8
)

// errSkipped is a skipped owner read's error: the node is down and was not
// asked. It is an rpc.ErrUnavailable, as the failures that took the node
// down were, and PullBags attributes it to the node like any other.
var errSkipped = fmt.Errorf("owner down, not asked: %w", rpc.ErrUnavailable)

// nodeHealth is one node's row. While the node is up, a read of it is one
// atomic load and an answered exchange another.
type nodeHealth struct {
	fails   atomic.Int32  // consecutive failed exchanges; downAfter or more is down
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
	return nh.fails.Load() >= downAfter && nh.skipped.Add(1)%halfOpenEvery != 0
}

// record counts one exchange with node n that ended in err.
func (h *health) record(n int, err error) {
	nh := &h.nodes[n]
	if err != nil && rpc.IsRetryable(err) {
		if nh.fails.Add(1) == downAfter {
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

// install makes r the ring and resets node health to its membership (dial,
// Join, Leave).
func (c *Client) install(r *Ring) {
	c.ring.Store(r)
	c.health.reset(len(c.addrs))
}

// Down reports whether node n is down: its last downAfter exchanges
// failed and none has answered since.
func (c *Client) Down(n int) bool { return c.health.down(n) }
