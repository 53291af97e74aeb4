// Package cluster is the worker-side view of a multi-node parameter
// server: embedding entries are partitioned across PS nodes by hashing
// their IDs (Sec. IV) onto a consistent-hash ring (ring.go), and each
// pull/push fans out to the owning nodes in parallel and reassembles the
// responses in input order. Membership can change live (Join/Leave,
// migrate.go). A serving read asks each key's owner and no other node: an
// owner the node health table holds down (health.go) is not asked, and its
// share fails at once with an error that names it. The package never opens
// a connection itself: each node is an rpc.Client dialed through
// Options.RPC.Dial, TCP unless the caller supplies another transport.
package cluster

import (
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"openembedding/internal/obs"
	"openembedding/internal/psengine"
	"openembedding/internal/rpc"
	"openembedding/internal/vec"
)

// Options configures a cluster Client. Node health (health.go) has no
// options: it is always on, and it is fed by the serving reads alone.
type Options struct {
	// RPC is every per-node rpc.DialOpts call's options, unchanged: the
	// deadline, the dial function, the attempts per request and the
	// client-side RPC metrics.
	RPC rpc.Options
	// Obs, when set, receives worker-side fan-out metrics:
	// cluster_fanout_width (nodes contacted per pull/push),
	// cluster_straggler_ns (slowest minus fastest node per fan-out),
	// cluster_pull_ns / cluster_push_ns end-to-end latency; and per-batch
	// spans: cluster.pull / cluster.push parents with per-node
	// cluster.node children.
	Obs *obs.Registry
}

// Client is a partitioned parameter-server client.
//
// Membership changes (Join/Leave, migrate.go) mutate the node tables and
// must not race other calls on the same Client: the coordinator that
// reshapes the cluster is the one training driver, so the methods here
// stay lock-free. Concurrent serving frontends use their own Clients.
type Client struct {
	dim   int
	nodes []*rpc.Client
	addrs []string

	// ring is the ownership table, never nil. Stored atomically so
	// concurrent PullBags readers observe a consistent ring while a
	// Join/Leave flips the epoch.
	ring atomic.Pointer[Ring]
	// ids are the stable ring identities of c.nodes, index-aligned;
	// nextID is the identity the next joiner receives. Identities are
	// never reused, so a membership history replays to the same ring.
	ids    []uint64
	nextID uint64
	// rpcOpts dials every node's connection, a joiner's included.
	rpcOpts rpc.Options
	// fans recycles the working memory of Pull, Push and PullBags calls
	// (see fan): one per call in flight, so calls sharing the Client never
	// share scratch.
	fans sync.Pool
	// migrateHook, when set by tests, runs between migration copy rounds
	// (round index, last sealed batch) and returns the new last sealed
	// batch — the hook may train, forcing delta rounds.
	migrateHook func(round int, batch int64) int64

	// health is the per-node up/down table (health.go). Join and Leave
	// reset it with the ring; like every membership change, they must not
	// race other calls.
	health health

	// metrics (nil, and free, without Options.Obs)
	fanWidth    *obs.Histogram
	straggler   *obs.Histogram
	pullNS      *obs.Histogram
	pushNS      *obs.Histogram
	bagNS       *obs.Histogram
	migrationNS *obs.Histogram
	replays     *obs.Counter
	migrations  *obs.Counter
	migKeys     *obs.Counter
	reg         *obs.Registry
}

// Dial connects to every node address with default options. dim must match
// the server engines.
func Dial(dim int, addrs []string) (*Client, error) {
	return DialOpts(dim, addrs, Options{})
}

// DialOpts connects to every node address with explicit options.
func DialOpts(dim int, addrs []string, opts Options) (*Client, error) {
	if len(addrs) == 0 {
		return nil, fmt.Errorf("cluster: no node addresses")
	}
	c := &Client{
		dim:     dim,
		addrs:   append([]string(nil), addrs...),
		rpcOpts: opts.RPC,
	}
	reg := opts.Obs // nil registry: nil, free metrics
	c.reg = reg
	c.fanWidth = reg.Histogram("cluster_fanout_width")
	c.straggler = reg.Histogram("cluster_straggler_ns")
	c.pullNS = reg.Histogram("cluster_pull_ns")
	c.pushNS = reg.Histogram("cluster_push_ns")
	c.bagNS = reg.Histogram("cluster_pullbag_ns")
	c.migrationNS = reg.Histogram("cluster_migration_ns")
	c.replays = reg.Counter("cluster_replays")
	c.migrations = reg.Counter("cluster_migrations")
	c.migKeys = reg.Counter("cluster_migrated_keys")
	c.health.suspicions = reg.Counter("cluster_suspicions")
	c.health.downNodes = reg.Gauge("cluster_suspected_nodes")
	for n, a := range addrs {
		cl, err := rpc.DialOpts(a, c.rpcOpts)
		if err != nil {
			c.Close()
			return nil, fmt.Errorf("cluster: node %d (%s): %w", n, a, err)
		}
		c.nodes = append(c.nodes, cl)
		c.ids = append(c.ids, uint64(n))
	}
	c.nextID = uint64(len(addrs))
	c.install(NewRing(c.ids))
	return c, nil
}

// Epoch returns the current ownership epoch: 0 at dial, bumped by every
// Join and Leave.
func (c *Client) Epoch() int64 { return c.ring.Load().Epoch() }

// Nodes returns the node count.
func (c *Client) Nodes() int { return len(c.nodes) }

// Owner returns the node index owning key on the current ring — the view
// oectl ring uses to show the key distribution.
func (c *Client) Owner(key uint64) int { return c.ring.Load().Owner(key) }

// NodeHealth probes node n with the health RPC (fence-exempt) and reports
// its epoch, serving status, and round-trip time.
func (c *Client) NodeHealth(n int) (rpc.NodeHealth, error) {
	if n < 0 || n >= len(c.nodes) {
		return rpc.NodeHealth{}, fmt.Errorf("cluster: node %d out of range [0,%d)", n, len(c.nodes))
	}
	return c.nodes[n].PingInfo()
}

// Dim returns the embedding dimension.
func (c *Client) Dim() int { return c.dim }

// nodeErr attributes a per-node failure so a worker log names the failed
// shard server, not just "connection reset".
func (c *Client) nodeErr(n int, err error) error {
	if err != nil {
		return fmt.Errorf("cluster: node %d (%s): %w", n, c.addrs[n], err)
	}
	return nil
}

// fan is the working memory of one Pull, Push or PullBags call: the call's
// arguments, the per-node key groups its plan builds and the per-node float
// buffers the rpc Into calls decode into. A call takes one from the
// client's pool and returns it when done, so a steady-state call allocates
// nothing here; nothing in it may be referenced after release.
type fan struct {
	c     *Client
	op    func(f *fan, n int) error // the per-node step: pullNode, pushNode or bagNode
	timed bool                      // Pull and Push record node spans and the straggler gap
	batch int64
	rows  []float32 // the caller's dst (Pull) or grads (Push)
	ring  *Ring     // the ring the plan is made on
	out   []float32 // PullBags: the caller's out, where share `first` lands
	first int       // PullBags: the lowest node holding keys of this call

	// Per node, index-aligned with c.nodes.
	keys [][]uint64
	pos  [][]int     // each key's position in the caller's list (Pull, Push)
	offs [][]uint32  // bag offsets over keys (PullBags)
	buf  [][]float32 // pulled rows, grouped grads, or the node's bag partial
	durs []time.Duration
}

// fan takes a call's working memory from the pool, shaped to the current
// node table.
func (c *Client) fan(op func(*fan, int) error, timed bool, batch int64) *fan {
	f, _ := c.fans.Get().(*fan)
	if f == nil {
		f = &fan{c: c}
	}
	if len(f.keys) != len(c.nodes) {
		f.reshape(len(c.nodes))
	}
	f.op, f.timed, f.batch, f.ring = op, timed, batch, c.ring.Load()
	for n := range f.keys {
		f.keys[n], f.pos[n], f.offs[n] = f.keys[n][:0], f.pos[n][:0], f.offs[n][:0]
	}
	return f
}

// oevet:coldpath the node table changes at Join and Leave only
func (f *fan) reshape(nn int) {
	f.keys = make([][]uint64, nn)
	f.pos = make([][]int, nn)
	f.offs = make([][]uint32, nn)
	f.buf = make([][]float32, nn)
	f.durs = make([]time.Duration, nn)
}

// release returns f to the pool, holding on to none of the caller's memory.
func (f *fan) release() {
	f.rows, f.out, f.ring = nil, nil, nil
	f.c.fans.Put(f)
}

// planKeys groups the caller's keys by owning node, remembering each key's
// original position for reassembly.
func (f *fan) planKeys(keys []uint64) {
	for i, k := range keys {
		n := f.ring.Owner(k)
		f.keys[n] = append(f.keys[n], k) //oevet:alloc-ok a pooled group keeps the capacity it grew to
		f.pos[n] = append(f.pos[n], i)   //oevet:alloc-ok a pooled group keeps the capacity it grew to
	}
}

// floats returns node n's pooled float buffer, sized to want.
func (f *fan) floats(n, want int) []float32 {
	f.buf[n] = slices.Grow(f.buf[n][:0], want)[:want] // grows to the node's largest share, then is reused
	return f.buf[n]
}

func (f *fan) has(n int) bool { return len(f.keys[n]) > 0 }

// node runs the call's per-node step on node n.
func (f *fan) node(n int) error {
	if !f.timed {
		return f.op(f, n)
	}
	sp := f.c.reg.Start("cluster.node", "cluster", int64(n), f.batch)
	err := f.op(f, n)
	f.durs[n] = sp.EndArg("keys", int64(len(f.keys[n])))
	return err
}

// run executes the per-node step for every node with a non-empty key group
// and returns the lowest failing node with its error (attributed by the
// caller). One node — every call on a one-node cluster, and any call whose
// keys share an owner — runs inline on the caller's goroutine; only a wider
// fan-out pays for eachNode's goroutines. When metrics are enabled a timed
// call also records the fan-out width and the straggler gap — the spread
// between the fastest and slowest node of this request, the quantity the
// paper's batched barrier is sensitive to.
func (f *fan) run() (n int, err error) {
	width, only := 0, -1
	for n := range f.keys {
		if f.has(n) {
			width++
			only = n
		}
	}
	switch width {
	case 0:
		return -1, nil
	case 1:
		n, err = only, f.node(only)
	default:
		n, err = eachNode(len(f.keys), f.has, f.node)
	}
	if c := f.c; f.timed && c.reg != nil {
		min, max := time.Duration(1<<62), time.Duration(0)
		for n, d := range f.durs {
			if !f.has(n) {
				continue
			}
			if d < min {
				min = d
			}
			if d > max {
				max = d
			}
		}
		c.fanWidth.ObserveValue(int64(width))
		c.straggler.Observe(max - min)
	}
	return n, err
}

// eachNode runs fn(i) for every index in [0, n) that want accepts (nil
// accepts all) — the last of them on the caller's goroutine, the others
// concurrently on their own — waits for all of them, and returns the lowest
// failing index with its error (-1, nil when none failed). It is the one
// per-node goroutine loop: fan-outs, broadcasts and bag gathers all go
// through it.
//
// oevet:coldpath a fan-out wider than one node pays for its goroutines; a one-node call never comes here
func eachNode(n int, want func(i int) bool, fn func(i int) error) (int, error) {
	var wg sync.WaitGroup
	errs := make([]error, n)
	last := n - 1
	for last >= 0 && want != nil && !want(last) {
		last--
	}
	for i := 0; i < last; i++ {
		if want != nil && !want(i) {
			continue
		}
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = fn(i)
		}(i)
	}
	if last >= 0 {
		errs[last] = fn(last)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			return i, err
		}
	}
	return -1, nil
}

// pullNode fetches node n's keys into its pooled buffer and scatters the
// rows to their positions in the caller's dst.
//
// oevet:hotpath
func (f *fan) pullNode(n int) error {
	dim, keys := f.c.dim, f.keys[n]
	rows := f.floats(n, len(keys)*dim)
	if err := f.c.nodes[n].PullInto(f.batch, keys, rows); err != nil {
		return err
	}
	for i, orig := range f.pos[n] {
		copy(f.rows[orig*dim:(orig+1)*dim], rows[i*dim:(i+1)*dim])
	}
	return nil
}

// Pull fetches weights for keys into dst (len(keys)*dim floats), routing
// each key to its owning node.
//
// oevet:hotpath
func (c *Client) Pull(batch int64, keys []uint64, dst []float32) error {
	if err := psengine.CheckBuf(keys, dst, c.dim); err != nil {
		return err
	}
	sp := c.reg.Start("cluster.pull", "cluster", -1, batch)
	f := c.fan((*fan).pullNode, true, batch)
	f.rows = dst
	f.planKeys(keys)
	err := c.nodeErr(f.run())
	f.release()
	if d := sp.EndArg("keys", int64(len(keys))); err == nil {
		c.pullNS.Observe(d)
	}
	return err
}

// bagNode is PullBags' per-node step: node n's share, read from its owner.
// The destination is the node's pooled buffer — except for the call's first
// share, which is decoded where it is wanted, in the caller's out: nothing
// else writes out until every node has returned. An owner the health table
// holds down is not asked; its share fails at once with errSkipped. Every
// owner read is an exchange the table counts.
//
// oevet:hotpath
func (f *fan) bagNode(n int) error {
	c := f.c
	if c.health.skip(n) {
		return errSkipped
	}
	dst := f.out
	if n != f.first {
		dst = f.floats(n, len(f.out))
	}
	err := c.nodes[n].PullBagsInto(false, f.offs[n], f.keys[n], dst)
	c.health.record(n, err)
	return err
}

// PullBags gathers pooled embedding bags across the cluster (the serving
// tier's read path): bag b is keys[offsets[b]:offsets[b+1]], pooled into
// out[b*dim:(b+1)*dim] — sum, or mean when mean is set. Each bag's keys
// are partitioned to their owning nodes, every contacted node pools its
// share server-side (always sum mode on the wire), and the partial sums
// are combined here in node-index order — a deterministic float-addition
// order, so repeated gathers of the same state agree bit-for-bit. Mean is
// applied client-side over each bag's full key count. out is written
// during the call (the first share is decoded into it): after an error its
// contents are unspecified.
//
// A share is asked of its owner and of no other node. An owner that fails
// fails the call with an error attributed to the node; an owner the health
// table holds down is not asked, and its share fails at once with an error
// that names the node and satisfies errors.Is(err, rpc.ErrUnavailable).
//
// oevet:hotpath
func (c *Client) PullBags(mean bool, offsets []uint32, keys []uint64, out []float32) error {
	if err := rpc.ValidateBagOffsets(offsets, len(keys)); err != nil {
		return err
	}
	bags := len(offsets) - 1
	if len(out) != bags*c.dim {
		//oevet:alloc-ok a caller bug, not the steady state
		return fmt.Errorf("cluster: out has %d floats, want %d (%d bags x dim %d)",
			len(out), bags*c.dim, bags, c.dim)
	}
	start := c.reg.Now()
	f := c.fan((*fan).bagNode, false, 0)
	defer f.release()
	f.out = out
	for n := range f.offs {
		f.offs[n] = append(f.offs[n], 0) //oevet:alloc-ok a pooled group keeps the capacity it grew to
	}
	for b := 0; b < bags; b++ {
		for _, k := range keys[offsets[b]:offsets[b+1]] {
			n := f.ring.Owner(k)
			f.keys[n] = append(f.keys[n], k) //oevet:alloc-ok a pooled group keeps the capacity it grew to
		}
		for n := range f.offs {
			f.offs[n] = append(f.offs[n], uint32(len(f.keys[n]))) //oevet:alloc-ok a pooled group keeps the capacity it grew to
		}
	}
	for f.first = 0; f.first < len(f.keys) && !f.has(f.first); f.first++ {
	}
	if n, err := f.run(); err != nil {
		return c.nodeErr(n, err)
	}
	// Shares combine in node-index order, whatever the width: the one
	// float-addition order every gather of the same state repeats. The
	// first share is already in out (bagNode); the others are added to it.
	if f.first == len(f.keys) {
		clear(out) // no key at all: every bag pools to the zero vector
	}
	for n := f.first + 1; n < len(f.keys); n++ {
		if f.has(n) {
			vec.Add(out, f.buf[n])
		}
	}
	if mean {
		for b := 0; b < bags; b++ {
			cnt := offsets[b+1] - offsets[b]
			if cnt == 0 {
				continue
			}
			inv := 1 / float32(cnt)
			row := out[b*c.dim : (b+1)*c.dim]
			for i := range row {
				row[i] *= inv
			}
		}
	}
	c.bagNS.Observe(c.reg.Now() - start)
	return nil
}

// pushNode groups node n's gradients into its pooled buffer and sends them.
//
// oevet:hotpath
func (f *fan) pushNode(n int) error {
	dim, keys := f.c.dim, f.keys[n]
	grads := f.floats(n, len(keys)*dim)
	for i, orig := range f.pos[n] {
		copy(grads[i*dim:(i+1)*dim], f.rows[orig*dim:(orig+1)*dim])
	}
	return f.c.nodes[n].Push(f.batch, keys, grads)
}

// Push routes gradients to the owning nodes.
//
// oevet:hotpath
func (c *Client) Push(batch int64, keys []uint64, grads []float32) error {
	if err := psengine.CheckBuf(keys, grads, c.dim); err != nil {
		return err
	}
	sp := c.reg.Start("cluster.push", "cluster", -1, batch)
	f := c.fan((*fan).pushNode, true, batch)
	f.rows = grads
	f.planKeys(keys)
	err := c.nodeErr(f.run())
	f.release()
	if d := sp.EndArg("keys", int64(len(keys))); err == nil {
		c.pushNS.Observe(d)
	}
	return err
}

// broadcast runs fn on every node concurrently and returns the first error,
// attributed to its node.
func (c *Client) broadcast(fn func(*rpc.Client) error) error {
	return c.nodeErr(eachNode(len(c.nodes), nil, func(i int) error { return fn(c.nodes[i]) }))
}

// EndPullPhase signals pull completion on every node.
func (c *Client) EndPullPhase(batch int64) error {
	return c.broadcast(func(n *rpc.Client) error { return n.EndPullPhase(batch) })
}

// EndBatch seals batch on every node.
func (c *Client) EndBatch(batch int64) error {
	return c.broadcast(func(n *rpc.Client) error { return n.EndBatch(batch) })
}

// RequestCheckpoint asks every node to checkpoint batch.
func (c *Client) RequestCheckpoint(batch int64) error {
	return c.broadcast(func(n *rpc.Client) error { return n.RequestCheckpoint(batch) })
}

// CompletedCheckpoint returns the cluster-wide durable checkpoint: the
// minimum over nodes (a checkpoint only counts when every shard has it).
// Each node's read, in index order, first waits for its queued
// checkpoints, so one call after RequestCheckpoint(b) says if b is durable.
func (c *Client) CompletedCheckpoint() (int64, error) {
	min := int64(1<<62 - 1)
	for i, n := range c.nodes {
		v, err := n.CompletedCheckpoint()
		if err != nil {
			return -1, c.nodeErr(i, err)
		}
		if v < min {
			min = v
		}
	}
	return min, nil
}

// Recover runs the coordinated rollback half of the recovery protocol
// (DESIGN.md §10): every node is rolled back to the cluster-wide committed
// checkpoint — idempotent for a node already there, such as one that just
// crash-recovered — and then every connection re-adopts its node's new
// epoch. Nodes are visited sequentially in index order so a seeded chaos
// run's per-node fault streams replay deterministically. The caller (the
// trainer) rewinds its own dense state and data streams to commit before
// resuming; commit is normally the value CompletedCheckpoint returned
// after the failure.
func (c *Client) Recover(commit int64) error {
	c.replays.Add(1)
	for i, n := range c.nodes {
		if err := n.Rollback(commit); err != nil {
			return c.nodeErr(i, fmt.Errorf("rollback to %d: %w", commit, err))
		}
	}
	for i, n := range c.nodes {
		if _, err := n.AdoptEpoch(); err != nil {
			return c.nodeErr(i, fmt.Errorf("adopt epoch: %w", err))
		}
	}
	return nil
}

// Recoverable reports whether err is worth a rollback + replay — transport
// failures, timeouts and epoch fences — rather than a permanent
// application error. It implements the trainer's Recoverer interface
// together with Recover.
func (c *Client) Recoverable(err error) bool { return rpc.IsRecoverable(err) }

// Scrub runs one full integrity pass on every node and sums the reports.
// Nodes are visited sequentially in index order (deterministic under
// seeded chaos, like Recover). If any node restored or fenced entries its
// epoch is now ahead; the caller must run Recover before resuming the
// batch protocol, exactly as after a crash.
func (c *Client) Scrub() (psengine.ScrubReport, error) {
	var total psengine.ScrubReport
	for i, n := range c.nodes {
		rep, err := n.Scrub()
		if err != nil {
			return total, c.nodeErr(i, err)
		}
		total.Add(rep)
	}
	return total, nil
}

// Stats sums the counters across nodes.
func (c *Client) Stats() (psengine.Stats, error) {
	var total psengine.Stats
	for i, n := range c.nodes {
		st, err := n.Stats()
		if err != nil {
			return total, c.nodeErr(i, err)
		}
		total.Entries += st.Entries
		total.CachedEntries += st.CachedEntries
		total.Hits += st.Hits
		total.Misses += st.Misses
		total.PMemReads += st.PMemReads
		total.PMemWrites += st.PMemWrites
		total.Evictions += st.Evictions
		total.CheckpointsDone += st.CheckpointsDone
	}
	return total, nil
}

// Close closes every node connection.
func (c *Client) Close() error {
	var first error
	for _, n := range c.nodes {
		if n == nil {
			continue
		}
		if err := n.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}
