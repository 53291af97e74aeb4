package cluster

import (
	"errors"
	"fmt"
	"slices"
	"time"

	"openembedding/internal/cache"
	"openembedding/internal/rpc"
)

// Replicated bag reads (DESIGN.md §15) with gray-failure degradation
// (§16): every key has a preferred owner and, with two or more nodes, a
// distinct replica (Ring.Secondary) kept warm by SyncReplicas pushes into
// the replica's serve overlay. PullBags prefers the owner; the owner is
// routed around when it is *degraded* — a transport failure or timeout, a
// shed (busy) response, an open circuit breaker, or mere suspicion by the
// failure detector — and the keys are regrouped by their per-key replica
// and re-read there. When the replicas cannot answer either, the stale
// fallback tier (serve.StaleTier) is the last line: the read succeeds,
// flagged stale, instead of erroring. Training pushes remain single-owner:
// replicas serve reads only, and a replica row is as stale as the last
// SyncReplicas that refreshed it.

// errSuspectedOwner is the failover cause recorded when the detector
// preempts an owner read.
var errSuspectedOwner = errors.New("cluster: owner suspected by failure detector")

// failoverCause attributes a failover for the split counters.
type failoverCause int

const (
	causeHard    failoverCause = iota // the owner answered with a degraded error
	causeSuspect                      // the detector preempted the owner read
	causeHedge                        // a hedged replica read won the race
)

// countFailover tallies one replica-answered share in the aggregate counter
// and its cause-split counter (cluster_failovers_{hard,suspect,hedge}).
func (c *Client) countFailover(cause failoverCause) {
	c.failovers.Add(1)
	c.failoversBy[cause].Add(1)
}

// bagRes is one bag read's outcome on its way through a channel.
type bagRes struct {
	vals []float32
	err  error
}

// bagNode is PullBags' per-node step: node n's share, down the ladder. The
// owner read's destination is the node's pooled buffer — except for the
// call's first share, which is decoded where it is wanted, in the caller's
// out: nothing else writes out until every node has returned. A first share
// some other step answered (a replica, the stale tier, any step of a hedging
// client) owns its slice and costs one copy.
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
//  1. owner    — skipped while the detector suspects it: a gray-failed
//     owner would burn the full read deadline before surfacing an error,
//     which is exactly the latency the detector exists to save. A healthy
//     answer, or an error no replica could do better on, ends here.
//  2. replicas — on a degraded owner error, on suspicion, or (HedgeDelay)
//     as soon as the owner has been silent for the hedge deadline, in
//     which case the two race and the first success wins.
//  3. stale    — the fallback tier answers, flagged, rather than erroring.
//  4. owner after all — only for a suspected owner skipped in step 1, when
//     no stale tier is configured: it is the best remaining option.
//  5. error    — the last step's.
//
// The share is returned in dst — the node's pooled buffer — when the owner
// answers, and in a slice of the step's own otherwise. With HedgeDelay a
// race's loser can still be in flight when this returns, so a hedging
// client works on private copies throughout: pooled memory would be handed
// to the next call under the loser's feet.
func (c *Client) bagRequest(ring *Ring, n, bags int, offs []uint32, keys []uint64, dst []float32) (_ []float32, stale bool, _ error) {
	if c.hedgeDelay > 0 {
		offs, keys, dst = slices.Clone(offs), slices.Clone(keys), make([]float32, len(dst)) //oevet:alloc-ok hedging pays for private memory
	}
	cause, why := errSuspectedOwner, causeSuspect
	var owner <-chan bagRes // an owner read still in flight behind its hedge
	if !c.Suspected(n) {
		var res bagRes
		if res, owner = c.bagOwner(n, offs, keys, dst); owner != nil {
			c.hedged.Add(1)
			cause, why = fmt.Errorf("hedged past %v", c.hedgeDelay), causeHedge
		} else if res.err == nil || !rpc.IsDegraded(res.err) {
			return res.vals, false, res.err
		} else {
			cause, why = res.err, causeHard
		}
	}
	var rep bagRes
	if owner == nil {
		rep.vals, rep.err = c.bagViaReplicas(ring, n, bags, offs, keys, cause)
	} else {
		var ownerWon bool
		if rep, ownerWon = c.bagRace(owner, ring, n, bags, offs, keys, cause); ownerWon {
			return rep.vals, false, nil
		}
	}
	if rep.err == nil {
		c.countFailover(why)
		return rep.vals, false, nil
	}
	if vals, ok := c.bagStale(bags, offs, keys); ok {
		return vals, true, nil
	}
	if why == causeSuspect {
		return dst, false, c.nodes[n].PullBagsInto(false, offs, keys, dst)
	}
	return nil, false, rep.err
}

// bagRace is step 2 started early: the replica read races the owner read
// still in flight behind its hedge, and the first success wins. ownerWon
// tells the caller not to count a failover; otherwise the outcome is the
// replicas'.
//
// oevet:coldpath a race runs only when the owner was silent past the hedge deadline
func (c *Client) bagRace(owner <-chan bagRes, ring *Ring, n, bags int, offs []uint32, keys []uint64, cause error) (_ bagRes, ownerWon bool) {
	hedge := make(chan bagRes, 1)
	go func() {
		vals, err := c.bagViaReplicas(ring, n, bags, offs, keys, cause)
		hedge <- bagRes{vals: vals, err: err}
	}()
	select {
	case rep := <-hedge:
		if rep.err != nil {
			if res := <-owner; res.err == nil {
				return res, true
			}
		}
		return rep, false
	case res := <-owner:
		if res.err == nil {
			return res, true
		}
		return <-hedge, false
	}
}

// bagOwner is step 1 of the ladder. Without HedgeDelay it is a plain
// synchronous read. With it, the read runs on its own goroutine and, when
// still unanswered at the hedge deadline, is handed back in flight (a
// non-nil channel) so the replica step can race it; the owner answering in
// time — the steady state — never pays for a replica round-trip.
func (c *Client) bagOwner(n int, offs []uint32, keys []uint64, dst []float32) (bagRes, <-chan bagRes) {
	if c.hedgeDelay <= 0 {
		return bagRes{vals: dst, err: c.nodes[n].PullBagsInto(false, offs, keys, dst)}, nil
	}
	return c.bagOwnerHedged(n, offs, keys, dst)
}

// oevet:coldpath a hedging client trades allocations for its tail latency
func (c *Client) bagOwnerHedged(n int, offs []uint32, keys []uint64, dst []float32) (bagRes, <-chan bagRes) {
	owner := make(chan bagRes, 1)
	go func() {
		owner <- bagRes{vals: dst, err: c.nodes[n].PullBagsInto(false, offs, keys, dst)}
	}()
	timer := time.NewTimer(c.hedgeDelay)
	defer timer.Stop()
	select {
	case res := <-owner:
		return res, nil
	case <-timer.C:
		return bagRes{}, owner
	}
}

// bagViaReplicas re-reads node n's share from the keys' replica nodes:
// keys are regrouped per replica (each key's Ring.Secondary), the replica
// requests run sequentially in node-index order, and the partial sums are
// added in that same order — so the substituted partial is bit-identical
// to what a deterministic replica sum would produce, and the caller's
// node-order accumulation stays deterministic. cause is the owner's
// failure, returned when some key has no replica to fail over to.
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
		if err := c.nodes[r].PullBagsInto(false, repOffs[r], repKeys[r], vals); err != nil {
			return nil, fmt.Errorf("replica node %d (%s): %w", r, c.addrs[r], err)
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
