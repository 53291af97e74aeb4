package cluster

import (
	"errors"
	"io"
	"net"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"openembedding/internal/faultinject"
	"openembedding/internal/obs"
	"openembedding/internal/ps"
	"openembedding/internal/rpc"
	"openembedding/internal/serve"
)

// Gray-failure tolerance tests (DESIGN.md §16): the counted node health
// table, preemptive failover of down owners, and the stale fallback tier
// that keeps serving answering when owners AND replicas are degraded.

// TestHealthStateMachine walks the health table over exchange sequences.
// A step is an exchange and a node: f transport failure, t timeout, a
// answer, b busy, r remote error, e epoch fence (owner reads); P failed
// probe, p answered probe; s a read that must skip the owner, o one that
// must ask it; R a membership change (Join/Leave).
func TestHealthStateMachine(t *testing.T) {
	_, remote := rpc.DecodeResponse(rpc.ErrBody(errors.New("boom")))
	_, busy := rpc.DecodeResponse(rpc.BusyErrBody(errors.New("shed")))
	outcome := map[byte]error{
		'f': &rpc.TransportError{Addr: "n", Op: "pullbag", Err: io.ErrUnexpectedEOF},
		't': &rpc.TimeoutError{Addr: "n", Op: "pullbag", After: time.Second},
		'a': nil,
		'b': busy,
		'r': remote,
		'e': &rpc.EpochError{Addr: "n", ClientEpoch: 1, ServerEpoch: 2},
	}
	skips := func(n int) string { return strings.Repeat("s0 ", n) }
	cases := []struct {
		name       string
		steps      string
		down       [2]bool
		suspicions int64
	}{
		{"two failures leave a node up", "f0 t0 o0", [2]bool{}, 0},
		{"three make it down", "f0 t0 f0 s0", [2]bool{true}, 1},
		{"busy, remote and epoch answers are answers", "f0 f0 b0 f0 f0 r0 f0 f0 e0 o0", [2]bool{}, 0},
		{"a read answer brings a down node up", "f0 f0 f0 a0 o0", [2]bool{}, 1},
		{"so does a busy one", "f0 f0 f0 b0 o0", [2]bool{}, 1},
		{"so does a probe answer", "f0 f0 f0 p0 o0", [2]bool{}, 1},
		{"every 8th skip asks the owner while nobody probes",
			"f0 f0 f0 " + skips(7) + "o0 f0 " + skips(7) + "o0 a0 o0", [2]bool{}, 1},
		{"once a probe has run only probes bring it back",
			"f0 f0 f0 s0 s0 P0 " + skips(16) + "p0 o0", [2]bool{}, 1},
		{"a node probes took down is watched by probes", "P0 P0 P0 " + skips(16), [2]bool{true}, 1},
		{"going down again re-arms the half-open read",
			"f0 f0 f0 P0 p0 f0 f0 f0 " + skips(7) + "o0", [2]bool{true}, 2},
		{"nodes are independent", "f1 f1 f1 o0 s1 f0 f0 a0 s1 o0", [2]bool{false, true}, 1},
		{"a membership change resets every node", "f0 f0 f0 f1 f1 R o0 o1 f1 o1", [2]bool{}, 1},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			reg := obs.NewRegistry()
			h := &health{suspicions: reg.Counter("cluster_suspicions"), downNodes: reg.Gauge("cluster_suspected_nodes")}
			h.reset(2)
			for i, st := range strings.Fields(tc.steps) {
				op := st[0]
				if op == 'R' {
					h.reset(2)
					continue
				}
				n := int(st[1] - '0')
				switch op {
				case 'P':
					h.probe(n, outcome['f'])
				case 'p':
					h.probe(n, nil)
				case 's', 'o':
					if got := h.skip(n); got != (op == 's') {
						t.Fatalf("step %d (%s): skip = %v", i, st, got)
					}
				default:
					h.record(n, outcome[op])
				}
			}
			wantDown := int64(0)
			for n, want := range tc.down {
				if h.down(n) != want {
					t.Errorf("node %d down = %v, want %v", n, !want, want)
				}
				if want {
					wantDown++
				}
			}
			s := reg.Snapshot()
			if got := s.Counters["cluster_suspicions"]; got != tc.suspicions {
				t.Errorf("cluster_suspicions = %d, want %d up→down transitions", got, tc.suspicions)
			}
			if got := s.Gauges["cluster_suspected_nodes"]; got != wantDown {
				t.Errorf("cluster_suspected_nodes = %d, want %d", got, wantDown)
			}
		})
	}
}

// TestProbeRoundAcrossMembershipChange: a probe round records by node
// index, so a round that a Join or Leave overtook between its pings and
// its record would mark whichever node holds the index now. Such a round
// records nothing.
func TestProbeRoundAcrossMembershipChange(t *testing.T) {
	live, gone := startElasticNode(t), startElasticNode(t)
	c, err := DialOpts(4, []string{live.Addr(), gone.Addr()}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	if err := gone.Close(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < downAfter; i++ {
		epoch, probes, errs := c.pingRound()
		if errs[1] == nil {
			t.Fatal("setup: a ping of the closed node answered")
		}
		c.ring.Store(c.ring.Load().withEpoch(epoch + 1)) // what Join and Leave do in between
		c.recordRound(epoch, probes, errs)
	}
	if c.Down(1) {
		t.Fatal("probe rounds overtaken by a membership change were recorded")
	}
	for i := 0; i < downAfter; i++ {
		c.Probe()
	}
	if !c.Down(1) || c.Down(0) {
		t.Fatalf("after %d current rounds: down = (%v, %v), want (false, true)", downAfter, c.Down(0), c.Down(1))
	}
}

// TestSuspicionPreemptiveFailover: probes find a dead node before any read
// does, and PullBags then routes its keys to replicas *without ever asking
// the down owner* — zero hard failovers, zero errors, bit-exact rows.
func TestSuspicionPreemptiveFailover(t *testing.T) {
	reg := obs.NewRegistry()
	var ns []*ps.Node
	var addrs []string
	for i := 0; i < 3; i++ {
		n := startElasticNode(t)
		ns = append(ns, n)
		addrs = append(addrs, n.Addr())
	}
	c, err := DialOpts(4, addrs, Options{Obs: reg})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })

	keys := testKeys(36)
	w := trainStep(t, c, 0, keys, 1)
	for i := range w {
		w[i] -= 0.1
	}
	if _, err := c.SyncReplicas(keys); err != nil {
		t.Fatalf("sync replicas: %v", err)
	}
	for i := 0; i < downAfter; i++ {
		c.Probe()
	}
	if c.Down(0) || c.Down(1) || c.Down(2) {
		t.Fatal("healthy node down after answered probe rounds")
	}

	// Node 1 dies; downAfter failed probes in a row take it down.
	dead := 1
	if err := ns[dead].Close(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < downAfter-1; i++ {
		c.Probe()
	}
	if c.Down(dead) {
		t.Fatalf("node down after %d failed probes, want %d", downAfter-1, downAfter)
	}
	c.Probe()
	if !c.Down(dead) {
		t.Fatalf("node not down after %d failed probes", downAfter)
	}
	if c.Down(0) || c.Down(2) {
		t.Fatal("healthy node co-suspected")
	}

	// Single-key bags: every key answers bit-exactly with no error, and
	// the down owner's keys fail over *preemptively* — the hard failover
	// counter stays zero because node 1 was never even asked.
	offs := make([]uint32, len(keys)+1)
	for i := range keys {
		offs[i+1] = uint32(i + 1)
	}
	out := make([]float32, len(keys)*c.dim)
	if err := c.PullBags(false, offs, keys, out); err != nil {
		t.Fatalf("pull-bags with a down node: %v", err)
	}
	for i := range out {
		if out[i] != w[i] {
			t.Fatalf("row [%d] = %v, want %v (bit-exact replica)", i, out[i], w[i])
		}
	}
	s := reg.Snapshot()
	if got := s.Counters["cluster_suspicions"]; got != 1 {
		t.Fatalf("cluster_suspicions = %d, want 1", got)
	}
	if got := s.Gauges["cluster_suspected_nodes"]; got != 1 {
		t.Fatalf("cluster_suspected_nodes = %d, want 1", got)
	}
	if got := s.Counters["cluster_failovers_suspect"]; got < 1 {
		t.Fatalf("cluster_failovers_suspect = %d, want >= 1", got)
	}
	if got := s.Counters["cluster_failovers_hard"]; got != 0 {
		t.Fatalf("cluster_failovers_hard = %d, want 0 (a down owner must not be asked)", got)
	}
	if agg, sus := s.Counters["cluster_failovers"], s.Counters["cluster_failovers_suspect"]; agg != sus {
		t.Fatalf("cluster_failovers = %d, want %d (all suspect-caused)", agg, sus)
	}
}

// TestSuspectedOwnerAskedAfterAll walks the ladder's last answering step:
// a single-node cluster has no replica and this client no stale tier, so
// when probes wrongly take the only owner down (its probe link is silent,
// its data link is fine) the share still goes to that owner — it is the
// best remaining option — and answers live, not stale, with no failover
// counted. The answer is an exchange like any other: the owner is up again.
func TestSuspectedOwnerAskedAfterAll(t *testing.T) {
	n := startElasticNode(t)
	inj := faultinject.New(3, faultinject.Rule{
		Point: faultinject.PointConnWrite, Label: "node0/probe", Kind: faultinject.KindPartition, Prob: 1,
	})
	reg := obs.NewRegistry()
	c, err := DialOpts(4, []string{n.Addr()}, Options{
		Obs: reg,
		RPC: rpc.Options{Inject: inj},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })

	keys := testKeys(8)
	w := trainStep(t, c, 0, keys, 1)
	for i := range w {
		w[i] -= 0.1
	}
	for i := 0; i < downAfter; i++ {
		c.Probe()
	}
	if !c.Down(0) {
		t.Fatal("node with a silent probe link not down")
	}

	offs := make([]uint32, len(keys)+1)
	for i := range keys {
		offs[i+1] = uint32(i + 1)
	}
	out := make([]float32, len(keys)*c.dim)
	res, err := c.PullBagsResult(false, offs, keys, out)
	if err != nil {
		t.Fatalf("pull-bags from a down sole owner: %v", err)
	}
	if res.Stale {
		t.Fatal("answer flagged stale without a stale tier")
	}
	for i := range out {
		if out[i] != w[i] {
			t.Fatalf("row [%d] = %v, want %v (live owner row)", i, out[i], w[i])
		}
	}
	if got := reg.Snapshot().Counters["cluster_failovers"]; got != 0 {
		t.Fatalf("cluster_failovers = %d, want 0 (no replica answered)", got)
	}
	if c.Down(0) {
		t.Fatal("the owner answered after all but is still down")
	}
}

// TestBreakerPerNode (named for the per-connection breakers the health
// table replaced): health is per node, and a skipped owner read never
// reaches the wire. Reads against a node that kills every connection take
// it down after downAfter failed reads while the live node stays up; from
// then on the dead node's share fails over without a retry-budget token or
// a connection attempt spent on it.
func TestBreakerPerNode(t *testing.T) {
	live := startElasticNode(t)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	var accepts atomic.Int64
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			accepts.Add(1)
			conn.Close()
		}
	}()
	budget := rpc.NewBudget(100, 0)
	c, err := DialOpts(4, []string{live.Addr(), ln.Addr().String()}, Options{
		RPC:   rpc.Options{Budget: budget, Retry: rpc.RetryPolicy{MaxAttempts: 2, Backoff: 100 * time.Microsecond, Seed: 3}},
		Stale: serve.NewStaleTier(0),
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })

	var deadKeys, liveKeys []uint64
	for _, k := range testKeys(32) {
		if c.Owner(k) == 1 {
			deadKeys = append(deadKeys, k)
		} else {
			liveKeys = append(liveKeys, k)
		}
	}
	read := func(keys []uint64) (BagResult, error) {
		return c.PullBagsResult(false, []uint32{0, uint32(len(keys))}, keys, make([]float32, c.dim))
	}
	for i := 0; i < downAfter; i++ {
		if res, err := read(deadKeys); err != nil || !res.Stale {
			t.Fatalf("read %d of the dead node's keys = (stale=%v, %v), want a stale answer", i, res.Stale, err)
		}
	}
	if !c.Down(1) || c.Down(0) {
		t.Fatalf("after %d failed reads: down = (%v, %v), want (false, true)", downAfter, c.Down(0), c.Down(1))
	}
	tokens, dials := budget.Tokens(), accepts.Load()
	if tokens == 100 || dials == 0 {
		t.Fatalf("setup: the failed reads spent %v tokens and %d connections", 100-tokens, dials)
	}
	for i := 0; i < halfOpenEvery-1; i++ {
		if _, err := read(deadKeys); err != nil {
			t.Fatalf("skipped read %d: %v", i, err)
		}
	}
	if got := budget.Tokens(); got != tokens {
		t.Fatalf("budget tokens = %v after skipped reads, want %v (a skipped owner costs no token)", got, tokens)
	}
	if got := accepts.Load(); got != dials {
		t.Fatalf("dead node accepted %d connections, want %d (a skipped owner is not dialed)", got, dials)
	}
	if res, err := read(liveKeys); err != nil || res.Stale {
		t.Fatalf("live node read = (stale=%v, %v), want a live answer", res.Stale, err)
	}
}

// TestStaleFallbackWhenAllReplicasDegraded: when a key's owner AND its
// replica are both gone, a refreshed stale tier answers the read —
// flagged stale, bit-exact to the last refresh — instead of erroring.
func TestStaleFallbackWhenAllReplicasDegraded(t *testing.T) {
	reg := obs.NewRegistry()
	stale := serve.NewStaleTier(0)
	var ns []*ps.Node
	var addrs []string
	for i := 0; i < 2; i++ {
		n := startElasticNode(t)
		ns = append(ns, n)
		addrs = append(addrs, n.Addr())
	}
	c, err := DialOpts(4, addrs, Options{Obs: reg, Stale: stale})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })

	keys := testKeys(24)
	w := trainStep(t, c, 0, keys, 1)
	for i := range w {
		w[i] -= 0.1
	}

	// A serving read tracks the hot keys; the refresh pass snapshots them.
	offs := make([]uint32, len(keys)+1)
	for i := range keys {
		offs[i+1] = uint32(i + 1)
	}
	out := make([]float32, len(keys)*c.dim)
	if res, err := c.PullBagsResult(false, offs, keys, out); err != nil || res.Stale {
		t.Fatalf("healthy read = (stale=%v, %v)", res.Stale, err)
	}
	if err := c.RefreshStale(); err != nil {
		t.Fatalf("refresh stale: %v", err)
	}
	if got := stale.Len(); got != len(keys) {
		t.Fatalf("stale tier holds %d rows after refresh, want %d", got, len(keys))
	}

	// Owner and replica of every key die.
	for _, n := range ns {
		if err := n.Close(); err != nil {
			t.Fatal(err)
		}
	}

	for i := range out {
		out[i] = 777
	}
	res, err := c.PullBagsResult(false, offs, keys, out)
	if err != nil {
		t.Fatalf("degraded read errored: %v (the stale tier must answer)", err)
	}
	if !res.Stale {
		t.Fatal("degraded read not flagged stale")
	}
	for i := range out {
		if out[i] != w[i] {
			t.Fatalf("stale row [%d] = %v, want %v (bit-exact last refresh)", i, out[i], w[i])
		}
	}
	s := reg.Snapshot()
	if got := s.Counters["serve_stale_fallbacks"]; got < 1 {
		t.Fatalf("serve_stale_fallbacks = %d, want >= 1", got)
	}
	if got := s.Counters["serve_stale_hits"]; got < int64(len(keys)) {
		t.Fatalf("serve_stale_hits = %d, want >= %d", got, len(keys))
	}
}

// TestServingGrayFailureSoak runs the full degradation ladder against a
// silently partitioned owner: hard failovers with a retry budget until
// the failed reads take the owner down, preempted failovers once probes
// watch it, stale answers when everything is gone — zero caller-surfaced
// errors and every read far under the owner's deadline.
func TestServingGrayFailureSoak(t *testing.T) {
	var ns []*ps.Node
	var addrs []string
	for i := 0; i < 3; i++ {
		n := startElasticNode(t)
		ns = append(ns, n)
		addrs = append(addrs, n.Addr())
	}

	// Train and replicate through a clean client; the chaos client below
	// only serves.
	trainer, err := DialOpts(4, addrs, Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { trainer.Close() })
	keys := testKeys(36)
	w := trainStep(t, trainer, 0, keys, 1)
	for i := range w {
		w[i] -= 0.1
	}
	if _, err := trainer.SyncReplicas(keys); err != nil {
		t.Fatal(err)
	}

	// From the serving client's point of view node 1 is silently
	// partitioned from the first byte, on its data link and its probe link
	// alike: every write is injected silent loss (an instant timeout).
	inj := faultinject.New(7,
		faultinject.Rule{Point: faultinject.PointConnWrite, Label: "node1", Kind: faultinject.KindPartition, Prob: 1},
		faultinject.Rule{Point: faultinject.PointConnWrite, Label: "node1/probe", Kind: faultinject.KindPartition, Prob: 1},
	)
	reg := obs.NewRegistry()
	stale := serve.NewStaleTier(0)
	c, err := DialOpts(4, addrs, Options{
		RPC: rpc.Options{
			Retry:        rpc.RetryPolicy{MaxAttempts: 4, Backoff: 200 * time.Microsecond, MaxBackoff: 2 * time.Millisecond, Seed: 7},
			Budget:       rpc.NewBudget(4, 0),
			ReadTimeout:  2 * time.Second,
			WriteTimeout: 2 * time.Second,
			Inject:       inj,
		},
		Stale: stale,
		Obs:   reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })

	offs := make([]uint32, len(keys)+1)
	for i := range keys {
		offs[i+1] = uint32(i + 1)
	}
	out := make([]float32, len(keys)*c.dim)
	var worst time.Duration
	read := func(label string, wantStale bool) {
		t.Helper()
		for i := range out {
			out[i] = 777
		}
		start := time.Now()
		res, err := c.PullBagsResult(false, offs, keys, out)
		took := time.Since(start)
		if took > worst {
			worst = took
		}
		if err != nil {
			t.Fatalf("%s: serving read errored: %v", label, err)
		}
		if res.Stale != wantStale {
			t.Fatalf("%s: stale = %v, want %v", label, res.Stale, wantStale)
		}
		for i := range out {
			if out[i] != w[i] {
				t.Fatalf("%s: row [%d] = %v, want %v (bit-exact)", label, i, out[i], w[i])
			}
		}
	}

	// Phase 1 — hard failover: reads against the partitioned owner burn
	// their (instantly failing) attempts, the retry budget empties, every
	// read still answers via replicas, and the downAfter-th failed read
	// takes the owner down.
	for r := 0; r < downAfter; r++ {
		read("phase1 hard-failover", false)
	}
	if !c.Down(1) {
		t.Fatalf("partitioned owner not down after %d failed reads", downAfter)
	}
	if err := c.RefreshStale(); err != nil {
		t.Fatalf("refresh stale: %v", err)
	}

	// Phase 2 — probe rounds: nodes 0/2 answer, node 1's probes fail, and
	// from now on only probes may bring node 1 back.
	c.Probe()
	if !c.Down(1) || c.Down(0) || c.Down(2) {
		t.Fatalf("after a probe round: down = (%v, %v, %v), want only node 1", c.Down(0), c.Down(1), c.Down(2))
	}
	hard := reg.Snapshot().Counters["cluster_failovers_hard"]

	// Phase 3 — preempted: more reads than a half-open period, and not
	// one of them asks the down owner.
	for r := 0; r < halfOpenEvery+1; r++ {
		read("phase3 preempted", false)
	}
	if got := reg.Snapshot().Counters["cluster_failovers_hard"]; got != hard {
		t.Fatalf("cluster_failovers_hard %d → %d: a read reached the down owner although probes watch it", hard, got)
	}

	// Phase 4 — owners and replicas all gone: the stale tier answers,
	// flagged, bit-exact to the refresh taken while healthy.
	for _, n := range ns {
		if err := n.Close(); err != nil {
			t.Fatal(err)
		}
	}
	read("phase4 stale", true)

	// Every read stayed far under the 2s owner deadline: injected
	// partitions are instant timeouts, a down owner is skipped entirely,
	// and nothing ever waited out a gray peer.
	if worst > 10*time.Second {
		t.Fatalf("worst serving read took %v; degradation must bound latency", worst)
	}

	s := reg.Snapshot()
	for counter, want := range map[string]int64{
		"cluster_suspicions":     1,
		"cluster_failovers_hard": downAfter,
	} {
		if got := s.Counters[counter]; got != want {
			t.Fatalf("%s = %d, want %d", counter, got, want)
		}
	}
	for counter, min := range map[string]int64{
		"cluster_failovers_suspect":  halfOpenEvery + 1,
		"rpc_retry_budget_exhausted": 1,
		"serve_stale_fallbacks":      1,
	} {
		if got := s.Counters[counter]; got < min {
			t.Fatalf("%s = %d, want >= %d", counter, got, min)
		}
	}
}

// TestNoGoroutineLeakAfterClose is the post-soak leak gate: a client that
// nobody probes holds no probe connections, and one with the prober
// running, its probe connections and nodes, must unwind completely on
// Close.
func TestNoGoroutineLeakAfterClose(t *testing.T) {
	before := runtime.NumGoroutine()

	var ns []*ps.Node
	var addrs []string
	for i := 0; i < 2; i++ {
		n := startElasticNode(t)
		ns = append(ns, n)
		addrs = append(addrs, n.Addr())
	}
	c, err := DialOpts(4, addrs, Options{Obs: obs.NewRegistry()})
	if err != nil {
		t.Fatal(err)
	}
	keys := testKeys(8)
	trainStep(t, c, 0, keys, 1)
	if err := c.PullBags(false, []uint32{0, uint32(len(keys))}, keys, make([]float32, c.dim)); err != nil {
		t.Fatal(err)
	}
	probes := func() int {
		c.healthMu.Lock()
		defer c.healthMu.Unlock()
		return len(c.probes)
	}
	if got := probes(); got != 0 {
		t.Fatalf("an unprobed client holds %d probe connections, want 0", got)
	}
	c.StartProber(2 * time.Millisecond)
	for deadline := time.Now().Add(5 * time.Second); probes() != len(addrs); {
		if time.Now().After(deadline) {
			t.Fatal("the prober never dialed its probe connections")
		}
		time.Sleep(time.Millisecond)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	for _, n := range ns {
		if err := n.Close(); err != nil {
			t.Fatal(err)
		}
	}

	deadline := time.Now().Add(5 * time.Second)
	for {
		if g := runtime.NumGoroutine(); g <= before+2 {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			n := runtime.Stack(buf, true)
			t.Fatalf("goroutines: %d before, %d after close\n%s",
				before, runtime.NumGoroutine(), buf[:n])
		}
		time.Sleep(10 * time.Millisecond)
	}
}
