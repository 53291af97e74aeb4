package cluster

import (
	"errors"
	"fmt"

	"openembedding/internal/cache"
	"openembedding/internal/rpc"
)

// Replicated bag reads (DESIGN.md §15) with gray-failure degradation
// (§16): every key has a preferred owner and, with two or more nodes, a
// distinct replica (Ring.Secondary) that holds a copy of the row once a
// SyncReplicas call has pushed it into the replica's serve overlay.
// PullBags prefers the owner; the owner is routed around when it is
// *degraded* — its read failed on the transport, timed out or was shed
// (busy), or the health table (health.go) holds it down and the read is
// skipped — and the keys are regrouped by their per-key replica and
// re-read there, as replica reads: a replica answers only rows it was
// sent, never the initializer an owner serves for an unknown key. When the
// replicas cannot answer either, the stale fallback tier (serve.StaleTier)
// is the last line: the read succeeds, flagged stale, instead of erroring.
// Training pushes remain single-owner: replicas serve reads only, a
// replica row is as old as the last SyncReplicas that covered its key, and
// nothing here schedules one.

// errOwnerDown is the failover cause recorded when a down owner's read is
// skipped.
var errOwnerDown = errors.New("cluster: owner down")

// failoverCause attributes a failover for the split counters.
type failoverCause int

const (
	causeHard    failoverCause = iota // the owner answered with a degraded error
	causeSuspect                      // the owner was down and its read skipped
)

// countFailover tallies one replica-answered share in the aggregate counter
// and its cause-split counter (cluster_failovers_{hard,suspect}).
func (c *Client) countFailover(cause failoverCause) {
	c.failovers.Add(1)
	c.failoversBy[cause].Add(1)
}

// bagNode is PullBags' per-node step: node n's share, down the ladder. The
// owner read's destination is the node's pooled buffer — except for the
// call's first share, which is decoded where it is wanted, in the caller's
// out: nothing else writes out until every node has returned. A first share
// some other step answered (a replica, the stale tier) owns its slice and
// costs one copy.
//
// oevet:hotpath
func (f *fan) bagNode(n int) (err error) {
	dst := f.out
	if n != f.first {
		dst = f.floats(n, len(f.out))
	}
	f.part[n], f.stale[n], err = f.c.bagRequest(f.ring, n, f.bags, f.offs[n], f.keys[n], dst)
	if part := f.part[n]; n == f.first && err == nil && len(part) > 0 && &part[0] != &f.out[0] {
		copy(f.out, part)
	}
	return err
}

// bagRequest fetches one node's share of a PullBags fan-out — the partial
// sums for all bags over keys, grouped under offs — down the one failover
// ladder (the step column of the DESIGN.md §16 failure taxonomy):
//
//  1. owner    — skipped while the health table holds it down: a
//     gray-failed owner would burn the full read deadline before
//     surfacing an error, every read. A healthy answer, or an error no
//     replica could do better on, ends here.
//  2. replicas — on a degraded owner error or a skipped owner.
//  3. stale    — the fallback tier answers, flagged, rather than erroring.
//  4. owner after all — only for an owner skipped in step 1, when no stale
//     tier is configured: it is the best remaining option.
//  5. error    — the last step's; step 4's also carries step 2's.
//
// Every owner read is an exchange the health table counts. The share is
// returned in dst when the owner answers, and in a slice of the step's own
// otherwise.
func (c *Client) bagRequest(ring *Ring, n, bags int, offs []uint32, keys []uint64, dst []float32) (_ []float32, stale bool, _ error) {
	cause, why := errOwnerDown, causeSuspect
	if !c.health.skip(n) {
		err := c.ownerRead(n, offs, keys, dst)
		if err == nil || !rpc.IsDegraded(err) {
			return dst, false, err
		}
		cause, why = err, causeHard
	}
	vals, err := c.bagViaReplicas(ring, n, bags, offs, keys, cause)
	if err == nil {
		c.countFailover(why)
		return vals, false, nil
	}
	if vals, ok := c.bagStale(bags, offs, keys); ok {
		return vals, true, nil
	}
	if why == causeSuspect {
		if oerr := c.ownerRead(n, offs, keys, dst); oerr != nil {
			return nil, false, fmt.Errorf("%w; owner asked after all: %w", err, oerr)
		}
		return dst, false, nil
	}
	return nil, false, err
}

// ownerRead reads node n's share from the owner into dst and counts the
// exchange.
func (c *Client) ownerRead(n int, offs []uint32, keys []uint64, dst []float32) error {
	err := c.nodes[n].PullBagsInto(false, offs, keys, dst)
	c.health.record(n, err)
	return err
}

// bagViaReplicas re-reads node n's share from the keys' replica nodes:
// keys are regrouped per replica (each key's Ring.Secondary), the replica
// requests run sequentially in node-index order, and the partial sums are
// added in that same order — so the substituted partial is bit-identical
// to what a deterministic replica sum would produce, and the caller's
// node-order accumulation stays deterministic. cause is the owner's
// failure: why the share is being read here, said in every error.
//
// oevet:coldpath failing over is the degraded path
func (c *Client) bagViaReplicas(ring *Ring, n, bags int, offs []uint32, keys []uint64, cause error) ([]float32, error) {
	nn := len(c.nodes)
	repKeys := make([][]uint64, nn)
	repOffs := make([][]uint32, nn)
	for r := range repOffs {
		repOffs[r] = make([]uint32, 1, bags+1)
	}
	for b := 0; b < bags; b++ {
		for _, k := range keys[offs[b]:offs[b+1]] {
			r := ring.Secondary(k)
			if r < 0 || r == n || r >= nn {
				return nil, fmt.Errorf("no replica for key %d: %w", k, cause)
			}
			repKeys[r] = append(repKeys[r], k)
		}
		for r := range repOffs {
			repOffs[r] = append(repOffs[r], uint32(len(repKeys[r])))
		}
	}
	acc := make([]float32, bags*c.dim)
	vals := make([]float32, bags*c.dim)
	for r := 0; r < nn; r++ {
		if len(repKeys[r]) == 0 {
			continue
		}
		if err := c.nodes[r].PullReplicaBagsInto(repOffs[r], repKeys[r], vals); err != nil {
			return nil, fmt.Errorf("replica node %d (%s): %w (owner: %w)", r, c.addrs[r], err, cause)
		}
		cache.AddInto(acc, vals)
	}
	return acc, nil
}

// bagStale answers one node's share from the stale fallback tier: each
// key contributes its last refreshed row (keys never refreshed contribute
// the zero vector — the documented staleness doctrine), summed per bag.
// Reports false without a configured tier.
//
// oevet:coldpath the stale tier answers only when owner and replicas are all degraded
func (c *Client) bagStale(bags int, offs []uint32, keys []uint64) ([]float32, bool) {
	if c.stale == nil {
		return nil, false
	}
	acc := make([]float32, bags*c.dim)
	for b := 0; b < bags; b++ {
		dst := acc[b*c.dim : (b+1)*c.dim]
		for _, k := range keys[offs[b]:offs[b+1]] {
			row := c.stale.Lookup(k)
			if len(row) != c.dim {
				continue
			}
			cache.AddInto(dst, row)
		}
	}
	c.stale.Fallback()
	return acc, true
}
