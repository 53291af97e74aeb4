package cluster

import (
	"fmt"
	"slices"

	"openembedding/internal/rpc"
)

// Live resharding (DESIGN.md §15). Join and Leave reshape the cluster
// while it keeps training and serving, by driving the crash-safe
// migration protocol per arc move:
//
//  0. hygiene  — DropRange(ivs) on the target, so a re-run after a
//     coordinator crash never double-counts half-adopted state.
//  1. copy     — paged MigrateRange/AdoptRange; every adopted entry is
//     durable (flushed) at adopt time, and adoption is idempotent.
//  2. deltas   — repeat with since = lastBatch+1 until a round copies
//     nothing and no new batch landed (migrateHook lets tests train
//     between rounds to force this).
//  3. seal     — a cluster-wide durable checkpoint at the final batch,
//     so post-flip recovery lands on post-migration state.
//  4. flip     — the ring's ownership epoch is bumped and every
//     connection re-adopts it; stale clients are fenced server-side.
//  5. cleanup  — DropRange(ivs) on the source, durably erasing the
//     moved records (idempotent, re-issuable after a crash).
//
// A crash before the seal recovers under the old ring (the re-run
// restarts from step 0); a crash after the seal recovers under the new
// ring and re-issues only the idempotent cleanup. The coordinator itself
// holds no durable state: a fresh client re-derives the plan from the
// membership history.

// migratePage bounds one MigrateRange page (keys per RPC).
const migratePage = 1024

// sinceAll exports every version — the full-copy floor for round 0.
const sinceAll = int64(-1) << 62

// migrateMove streams one arc set from source node src to dst: pages of
// entries with version >= since, adopted durably on dst. Returns the
// number of entries copied.
func (c *Client) migrateMove(dst *rpc.Client, src int, ivs []rpc.HashInterval, since int64) (int, error) {
	copied := 0
	from := uint64(0)
	for {
		entries, more, err := c.nodes[src].MigrateRange(since, from, migratePage, ivs)
		if err != nil {
			return copied, c.nodeErr(src, fmt.Errorf("migrate range: %w", err))
		}
		if len(entries) > 0 {
			if err := dst.AdoptRange(entries); err != nil {
				return copied, fmt.Errorf("cluster: adopt range: %w", err)
			}
			from = entries[len(entries)-1].Key + 1
			copied += len(entries)
		}
		if !more {
			return copied, nil
		}
	}
}

// copyRounds runs the copy phase for a move set: round 0 copies
// everything, later rounds replay only deltas pushed since the previous
// round's batch floor. dstFor maps a move to its target connection.
// Returns the total entries copied and the final sealed batch.
func (c *Client) copyRounds(moves []move, dstFor func(move) *rpc.Client, batch int64) (int, int64, error) {
	total := 0
	floor := sinceAll
	cur := batch
	for round := 0; ; round++ {
		copied := 0
		for _, mv := range moves {
			n, err := c.migrateMove(dstFor(mv), mv.src, mv.ivs, floor)
			copied += n
			if err != nil {
				return total + copied, cur, err
			}
		}
		total += copied
		next := cur
		if c.migrateHook != nil {
			next = c.migrateHook(round, cur)
		}
		done := copied == 0 && next == cur
		floor, cur = cur+1, next
		if done {
			return total, cur, nil
		}
	}
}

// verifyMove proves the copy took: source and target page through the
// moved intervals in lockstep (exports are key-sorted with equal page
// size, so equal sets align page-by-page) and every (key, version) pair
// must match. This is the pre-seal guard of the crash matrix: a target
// that crash-restarted mid-copy recovers to its durable checkpoint and
// silently sheds adopted entries newer than it — and transparent RPC
// retries would otherwise carry the coordinator right past the restart
// into a data-losing ownership flip. A mismatch aborts the migration;
// the re-run starts from the hygiene drop and recopies.
func (c *Client) verifyMove(dst *rpc.Client, src int, ivs []rpc.HashInterval) error {
	var sFrom, tFrom uint64
	for page := 0; ; page++ {
		se, sMore, err := c.nodes[src].MigrateRange(sinceAll, sFrom, migratePage, ivs)
		if err != nil {
			return c.nodeErr(src, fmt.Errorf("verify export: %w", err))
		}
		te, tMore, err := dst.MigrateRange(sinceAll, tFrom, migratePage, ivs)
		if err != nil {
			return fmt.Errorf("cluster: verify target export: %w", err)
		}
		if len(se) != len(te) || sMore != tMore {
			return fmt.Errorf("cluster: migration verify failed: source %d entries (more=%v) vs target %d (more=%v) at page %d; re-run the migration",
				len(se), sMore, len(te), tMore, page)
		}
		for i := range se {
			if se[i].Key != te[i].Key || se[i].Version != te[i].Version {
				return fmt.Errorf("cluster: migration verify failed: source (key %d, v%d) vs target (key %d, v%d); re-run the migration",
					se[i].Key, se[i].Version, te[i].Key, te[i].Version)
			}
		}
		if !sMore {
			return nil
		}
		sFrom, tFrom = se[len(se)-1].Key+1, te[len(te)-1].Key+1
	}
}

// ensureCheckpoint drives node cl to a durable checkpoint at batch: skip
// if already there, else request it and read again (the read waits for
// every checkpoint the node has queued).
func (c *Client) ensureCheckpoint(cl *rpc.Client, batch int64) error {
	v, err := cl.CompletedCheckpoint()
	if err != nil {
		return err
	}
	if v >= batch {
		return nil
	}
	// The request may be rejected if an earlier (crashed) run already
	// queued this checkpoint; the read below is the authority, so the
	// request error is only reported if the checkpoint is still missing.
	reqErr := cl.RequestCheckpoint(batch)
	if v, err = cl.CompletedCheckpoint(); err != nil {
		return err
	}
	if v >= batch {
		return nil
	}
	if reqErr != nil {
		return fmt.Errorf("checkpoint %d not durable (at %d): %w", batch, v, reqErr)
	}
	return fmt.Errorf("checkpoint %d not durable (at %d)", batch, v)
}

// adoptEpochs re-adopts the server epoch on the given connections (the
// migration RPCs fence the nodes they mutate; the coordinator's own
// connections follow the fence here, like cluster.Recover does).
func (c *Client) adoptEpochs(cls []*rpc.Client) error {
	for i, cl := range cls {
		if _, err := cl.AdoptEpoch(); err != nil {
			return fmt.Errorf("cluster: adopt epoch (conn %d): %w", i, err)
		}
	}
	return nil
}

// Join adds the node at addr to the ring and live-migrates its arcs from
// their current owners. batch is the last sealed training batch; the
// migration seals a cluster-wide checkpoint at the final batch before
// flipping ownership. Join must not race other calls on this Client (it is
// the coordinator's own training driver).
func (c *Client) Join(batch int64, addr string) error {
	r := c.ring.Load()
	start := c.reg.Now()
	nr, moves := r.joinPlan(c.nextID)
	nc, err := rpc.DialOpts(addr, c.rpcOpts)
	if err != nil {
		return fmt.Errorf("cluster: join %s: %w", addr, err)
	}
	// Until the flip hands nc to the node table, every failure drops it.
	flipped := false
	defer func() {
		if !flipped {
			nc.Close()
		}
	}()
	// Step 0: hygiene — drop the moving arcs on the target so a re-run
	// after a coordinator crash starts from a clean slate.
	var allIvs []rpc.HashInterval
	for _, mv := range moves {
		allIvs = append(allIvs, mv.ivs...)
	}
	if _, err := nc.DropRange(allIvs); err != nil {
		return fmt.Errorf("cluster: join %s: target hygiene drop: %w", addr, err)
	}
	if _, err := nc.AdoptEpoch(); err != nil {
		return fmt.Errorf("cluster: join %s: adopt epoch: %w", addr, err)
	}
	// Steps 1–2: full copy, then delta rounds until quiescent.
	total, cur, err := c.copyRounds(moves, func(move) *rpc.Client { return nc }, batch)
	if err != nil {
		return err
	}
	// Pre-seal verification: the copy must prove itself before ownership
	// can flip (a restarted target sheds un-checkpointed adopts).
	for _, mv := range moves {
		if err := c.verifyMove(nc, mv.src, mv.ivs); err != nil {
			return err
		}
	}
	// The adopts fenced the target; re-adopt before sealing through it.
	if _, err := nc.AdoptEpoch(); err != nil {
		return fmt.Errorf("cluster: join %s: adopt epoch: %w", addr, err)
	}
	// Step 3: seal — the fresh target first seals cur (it has run no
	// batches), then every node reaches a durable checkpoint at cur.
	if err := nc.EndBatch(cur); err != nil {
		return fmt.Errorf("cluster: join %s: seal end-batch %d: %w", addr, cur, err)
	}
	for i, cl := range c.nodes {
		if err := c.ensureCheckpoint(cl, cur); err != nil {
			return c.nodeErr(i, fmt.Errorf("seal: %w", err))
		}
	}
	if err := c.ensureCheckpoint(nc, cur); err != nil {
		return fmt.Errorf("cluster: join %s: seal: %w", addr, err)
	}
	// Step 4: flip — membership tables and the ring's ownership epoch.
	flipped = true
	c.nodes = append(c.nodes, nc)
	c.addrs = append(c.addrs, addr)
	c.ids = append(c.ids, c.nextID)
	c.nextID++
	c.install(nr.withEpoch(r.Epoch() + 1))
	// Step 5: cleanup — durably erase the moved arcs from their sources,
	// then follow the fences those drops raised.
	for _, mv := range moves {
		if _, err := c.nodes[mv.src].DropRange(mv.ivs); err != nil {
			return c.nodeErr(mv.src, fmt.Errorf("cleanup drop: %w", err))
		}
	}
	if err := c.adoptEpochs(c.nodes); err != nil {
		return err
	}
	c.migrations.Add(1)
	c.migKeys.Add(int64(total))
	c.migrationNS.Observe(c.reg.Now() - start)
	return nil
}

// Leave removes node (by index) from the ring, live-migrating its arcs to
// the remaining owners, and closes its connection. batch is the last
// sealed training batch. Requires at least two nodes. Leave must not race
// other calls on this Client.
func (c *Client) Leave(batch int64, node int) error {
	r := c.ring.Load()
	if node < 0 || node >= len(c.nodes) {
		return fmt.Errorf("cluster: leave: no node %d", node)
	}
	if len(c.nodes) < 2 {
		return fmt.Errorf("cluster: leave: cannot remove the last node")
	}
	start := c.reg.Now()
	nr, moves, _ := r.leavePlan(node)
	// Step 0: hygiene drops on every target.
	for _, mv := range moves {
		if _, err := c.nodes[mv.dst].DropRange(mv.ivs); err != nil {
			return c.nodeErr(mv.dst, fmt.Errorf("target hygiene drop: %w", err))
		}
	}
	if err := c.adoptEpochs(c.nodes); err != nil {
		return err
	}
	// Steps 1–2: copy + delta rounds (sources all = leaving node; dst per
	// move, indexed in the pre-flip table).
	total, cur, err := c.copyRounds(moves, func(mv move) *rpc.Client { return c.nodes[mv.dst] }, batch)
	if err != nil {
		return err
	}
	// Pre-seal verification, per target (see verifyMove).
	for _, mv := range moves {
		if err := c.verifyMove(c.nodes[mv.dst], mv.src, mv.ivs); err != nil {
			return err
		}
	}
	// The adopts fenced the targets; follow before sealing through them.
	if err := c.adoptEpochs(c.nodes); err != nil {
		return err
	}
	// Step 3: seal on the remaining nodes (the leaver's data is now
	// owned elsewhere; its checkpoint no longer gates the cluster).
	for i, cl := range c.nodes {
		if i == node {
			continue
		}
		if err := c.ensureCheckpoint(cl, cur); err != nil {
			return c.nodeErr(i, fmt.Errorf("seal: %w", err))
		}
	}
	// Step 4: flip — remove the node from the tables, bump the epoch.
	// (Fresh tables, not in-place deletes: a reader holding the old slices
	// must keep seeing the old membership.)
	leaving := c.nodes[node]
	c.nodes = slices.Delete(slices.Clone(c.nodes), node, node+1)
	c.addrs = slices.Delete(slices.Clone(c.addrs), node, node+1)
	c.ids = slices.Delete(slices.Clone(c.ids), node, node+1)
	c.install(nr.withEpoch(r.Epoch() + 1))
	// Step 5: the leaver exits the cluster; its durable image goes with
	// it, so no cleanup drop is needed. Close the connection.
	leaving.Close() //nolint:errcheck // the node is leaving; a close error changes nothing
	c.migrations.Add(1)
	c.migKeys.Add(int64(total))
	c.migrationNS.Observe(c.reg.Now() - start)
	return nil
}
