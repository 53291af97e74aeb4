package cluster

import (
	"errors"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"openembedding/internal/faultinject"
	"openembedding/internal/obs"
	"openembedding/internal/ps"
	"openembedding/internal/rpc"
	"openembedding/internal/serve"
)

// Gray-failure tolerance tests (DESIGN.md §16): the suspicion-based
// failure detector, preemptive failover of suspected owners, and the
// stale fallback tier that keeps serving answering when owners AND
// replicas are degraded.

func TestDetectorAccrual(t *testing.T) {
	reg := obs.NewRegistry()
	d := NewDetector(2, DetectorConfig{Interval: 100 * time.Millisecond, Threshold: 3, Window: 4}, reg)

	ms := func(n int) time.Duration { return time.Duration(n) * time.Millisecond }
	for i := 0; i <= 3; i++ {
		d.Observe(0, ms(i*100))
	}
	// Silence of 100ms against a 100ms expected gap: healthy.
	if d.Suspected(0, ms(400)) {
		t.Fatal("suspected after one missed beat (threshold is 3)")
	}
	// Silence of 301ms > 3 × 100ms: suspected, counter ticks once.
	if !d.Suspected(0, ms(601)) {
		t.Fatal("not suspected after 3× the expected gap")
	}
	if !d.Suspected(0, ms(700)) {
		t.Fatal("suspicion did not persist")
	}
	s := reg.Snapshot()
	if got := s.Counters["cluster_suspicions"]; got != 1 {
		t.Fatalf("cluster_suspicions = %d, want 1 (one alive→suspected transition)", got)
	}
	if got := s.Gauges["cluster_suspected_nodes"]; got != 1 {
		t.Fatalf("cluster_suspected_nodes = %d, want 1", got)
	}

	// An observation always clears suspicion: the node answered.
	d.Observe(0, ms(700))
	if d.Suspected(0, ms(750)) {
		t.Fatal("still suspected after a successful observation")
	}
	if got := reg.Snapshot().Gauges["cluster_suspected_nodes"]; got != 0 {
		t.Fatalf("suspected gauge = %d after recovery, want 0", got)
	}

	// Re-suspecting is a second transition. The recovery gap (400ms)
	// entered the window, so the learned mean is now 175ms and the limit
	// 525ms of silence.
	if !d.Suspected(0, ms(1300)) {
		t.Fatal("not re-suspected after renewed silence")
	}
	if got := reg.Snapshot().Counters["cluster_suspicions"]; got != 2 {
		t.Fatalf("cluster_suspicions = %d, want 2", got)
	}

	// A node never successfully observed is never suspected: there is no
	// arrival history to accrue over, and hard errors speak for themselves.
	if d.Suspected(1, ms(1<<40)) {
		t.Fatal("never-observed node suspected")
	}
	if got := d.SuspectedCount(); got != 1 {
		t.Fatalf("SuspectedCount = %d, want 1", got)
	}
}

func TestDetectorAdaptsToSlowLinks(t *testing.T) {
	// A link that legitimately beats at 1s must not be suspected at the
	// 100ms floor's threshold — the accrual window learns the real gap.
	d := NewDetector(1, DetectorConfig{Interval: 100 * time.Millisecond, Threshold: 3, Window: 4}, nil)
	for i := 0; i <= 3; i++ {
		d.Observe(0, time.Duration(i)*time.Second)
	}
	if d.Suspected(0, 3*time.Second+2500*time.Millisecond) {
		t.Fatal("suspected at 2.5s silence with a learned 1s gap (limit is 3s)")
	}
	if !d.Suspected(0, 3*time.Second+3100*time.Millisecond) {
		t.Fatal("not suspected past 3× the learned gap")
	}
}

func TestDetectorResizeResets(t *testing.T) {
	reg := obs.NewRegistry()
	d := NewDetector(2, DetectorConfig{Interval: 10 * time.Millisecond}, reg)
	d.Observe(0, 0)
	if !d.Suspected(0, time.Second) {
		t.Fatal("setup: node 0 not suspected")
	}
	d.Resize(3)
	if got := reg.Snapshot().Gauges["cluster_suspected_nodes"]; got != 0 {
		t.Fatalf("suspected gauge = %d after Resize, want 0", got)
	}
	// Membership changed, indexes shifted: all accrual state is fresh.
	if d.Suspected(0, 2*time.Second) {
		t.Fatal("suspicion survived a Resize")
	}
	if got := d.SuspectedCount(); got != 0 {
		t.Fatalf("SuspectedCount = %d after Resize, want 0", got)
	}
}

// TestSuspicionPreemptiveFailover is the detector acceptance test: a
// cluster with the detector armed (virtual clock) suspects a node that
// goes silent, and PullBags then routes its keys to replicas *without
// ever asking the suspected owner* — zero hard failovers, zero errors,
// bit-exact rows.
func TestSuspicionPreemptiveFailover(t *testing.T) {
	reg := obs.NewRegistry()
	var ns []*ps.Node
	var addrs []string
	for i := 0; i < 3; i++ {
		n := startElasticNode(t)
		ns = append(ns, n)
		addrs = append(addrs, n.Addr())
	}
	var vnow atomic.Int64 // virtual time: the detector never reads a wall clock
	c, err := DialOpts(4, addrs, Options{
		Obs:      reg,
		Detector: &DetectorConfig{Interval: 100 * time.Millisecond, Threshold: 3, Window: 4},
		Clock:    func() time.Duration { return time.Duration(vnow.Load()) },
	})
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

	// Healthy probe rounds at the configured cadence build the accrual
	// baseline for every node.
	for i := 0; i < 4; i++ {
		c.Probe()
		vnow.Add(int64(100 * time.Millisecond))
	}
	if c.Suspected(0) || c.Suspected(1) || c.Suspected(2) {
		t.Fatal("healthy node suspected after regular probe rounds")
	}

	// Node 1 goes silent; after > Threshold × gap of virtual silence the
	// detector suspects it.
	dead := 1
	if err := ns[dead].Close(); err != nil {
		t.Fatal(err)
	}
	c.Probe() // failed ping: no arrival recorded
	vnow.Add(int64(time.Second))
	c.Probe()
	if !c.Suspected(dead) {
		t.Fatal("silent node not suspected past the accrual threshold")
	}
	if c.Suspected(0) || c.Suspected(2) {
		t.Fatal("healthy node co-suspected")
	}

	// Single-key bags: every key answers bit-exactly with no error, and
	// the suspected owner's keys fail over *preemptively* — the hard
	// failover counter stays zero because node 1 was never even asked.
	offs := make([]uint32, len(keys)+1)
	for i := range keys {
		offs[i+1] = uint32(i + 1)
	}
	out := make([]float32, len(keys)*c.dim)
	if err := c.PullBags(false, offs, keys, out); err != nil {
		t.Fatalf("pull-bags with suspected node: %v", err)
	}
	for i := range out {
		if out[i] != w[i] {
			t.Fatalf("row [%d] = %v, want %v (bit-exact replica)", i, out[i], w[i])
		}
	}
	s := reg.Snapshot()
	if got := s.Counters["cluster_suspicions"]; got < 1 {
		t.Fatalf("cluster_suspicions = %d, want >= 1", got)
	}
	if got := s.Counters["cluster_failovers_suspect"]; got < 1 {
		t.Fatalf("cluster_failovers_suspect = %d, want >= 1", got)
	}
	if got := s.Counters["cluster_failovers_hard"]; got != 0 {
		t.Fatalf("cluster_failovers_hard = %d, want 0 (suspicion must preempt the owner read)", got)
	}
	if agg, sus := s.Counters["cluster_failovers"], s.Counters["cluster_failovers_suspect"]; agg != sus {
		t.Fatalf("cluster_failovers = %d, want %d (all suspect-caused)", agg, sus)
	}
}

// TestSuspectedOwnerAskedAfterAll walks the ladder's last answering step:
// a single-node cluster has no replica and this client no stale tier, so
// when the detector wrongly suspects the only owner (its probe link went
// silent, its data link is fine) the share still goes to that owner — it
// is the best remaining option — and answers live, not stale, with no
// failover counted.
func TestSuspectedOwnerAskedAfterAll(t *testing.T) {
	n := startElasticNode(t)
	// The probe link answers the handshake and four rounds, then goes
	// silent; the data link ("node0") is never touched.
	inj := faultinject.New(3, faultinject.Rule{
		Point: faultinject.PointConnWrite, Label: "node0/probe", Kind: faultinject.KindPartition, Prob: 1, From: 6,
	})
	reg := obs.NewRegistry()
	var vnow atomic.Int64
	c, err := DialOpts(4, []string{n.Addr()}, Options{
		Obs:      reg,
		RPC:      rpc.Options{Inject: inj},
		Detector: &DetectorConfig{Interval: 100 * time.Millisecond, Threshold: 3, Window: 4},
		Clock:    func() time.Duration { return time.Duration(vnow.Load()) },
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
	for i := 0; i < 4; i++ {
		c.Probe()
		vnow.Add(int64(100 * time.Millisecond))
	}
	vnow.Add(int64(time.Second))
	c.Probe()
	if !c.Suspected(0) {
		t.Fatal("node with a silent probe link not suspected")
	}

	offs := make([]uint32, len(keys)+1)
	for i := range keys {
		offs[i+1] = uint32(i + 1)
	}
	out := make([]float32, len(keys)*c.dim)
	res, err := c.PullBagsResult(false, offs, keys, out)
	if err != nil {
		t.Fatalf("pull-bags from a suspected sole owner: %v", err)
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
}

// TestBreakerPerNode: a circuit breaker is one peer's state. A breaker the
// caller put in Options.RPC is never handed to the per-node connections —
// shared, one dead node's failures would fail-fast every live one — and
// Breakers builds each node its own: the dead node's opens, the live node
// keeps answering.
func TestBreakerPerNode(t *testing.T) {
	live, gone := startElasticNode(t), startElasticNode(t)
	shared := rpc.NewBreaker(1, 1<<30) // opens on one failure, all but never probes
	reg := obs.NewRegistry()
	c, err := DialOpts(4, []string{live.Addr(), gone.Addr()}, Options{
		RPC:      rpc.Options{Breaker: shared, Retry: rpc.RetryPolicy{MaxAttempts: 1}},
		Breakers: true,
		Obs:      reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	if err := gone.Close(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2*rpc.DefaultBreakerThreshold; i++ {
		if _, err := c.NodeHealth(1); err == nil {
			t.Fatal("ping to a closed node succeeded")
		}
	}
	if _, err := c.NodeHealth(1); !errors.Is(err, rpc.ErrBreakerOpen) {
		t.Fatalf("dead node after %d failures: %v, want its breaker open", 2*rpc.DefaultBreakerThreshold, err)
	}
	if _, err := c.NodeHealth(0); err != nil {
		t.Fatalf("live node: %v (the dead node's failures reached its breaker)", err)
	}
	if shared.Open() {
		t.Fatal("the caller's breaker was forwarded to a node connection")
	}
	if got := reg.Snapshot().Counters["rpc_breaker_open"]; got != 1 {
		t.Fatalf("rpc_breaker_open = %d, want 1 (the dead node's own)", got)
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
// silently partitioned owner: hard failovers with retry budget and
// breaker while the detector accrues, suspicion-preempted failovers
// after, stale answers when everything is gone — zero caller-surfaced
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

	// From the serving client's point of view node 1's data link is
	// silently partitioned from the first byte: every write is injected
	// silent loss (an instant timeout). The probe link stays healthy for
	// five writes (the handshake plus four probe rounds) so the detector
	// builds an arrival history — a node never successfully observed is
	// deliberately never suspected — and then goes silent too.
	inj := faultinject.New(7,
		faultinject.Rule{Point: faultinject.PointConnWrite, Label: "node1", Kind: faultinject.KindPartition, Prob: 1},
		faultinject.Rule{Point: faultinject.PointConnWrite, Label: "node1/probe", Kind: faultinject.KindPartition, Prob: 1, From: 6},
	)
	reg := obs.NewRegistry()
	stale := serve.NewStaleTier(0)
	var vnow atomic.Int64
	c, err := DialOpts(4, addrs, Options{
		RPC: rpc.Options{
			Retry:        rpc.RetryPolicy{MaxAttempts: 4, Backoff: 200 * time.Microsecond, MaxBackoff: 2 * time.Millisecond, Seed: 7},
			Budget:       rpc.NewBudget(4, 0),
			ReadTimeout:  2 * time.Second,
			WriteTimeout: 2 * time.Second,
			Inject:       inj,
		},
		Breakers: true,
		Detector: &DetectorConfig{Interval: 100 * time.Millisecond, Threshold: 3, Window: 4},
		Clock:    func() time.Duration { return time.Duration(vnow.Load()) },
		Stale:    stale,
		Obs:      reg,
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

	// Phase 1 — the detector has no evidence yet: reads against the
	// partitioned owner burn their (instantly failing) attempts, the
	// breaker opens, the retry budget empties, and every read still
	// answers via hard failover to replicas.
	for r := 0; r < 3; r++ {
		read("phase1 hard-failover", false)
	}
	if err := c.RefreshStale(); err != nil {
		t.Fatalf("refresh stale: %v", err)
	}

	// Phase 2 — probe rounds under the virtual clock: nodes 0/2 keep
	// answering, node 1 accrues silence past the threshold.
	for i := 0; i < 4; i++ {
		c.Probe()
		vnow.Add(int64(100 * time.Millisecond))
	}
	vnow.Add(int64(time.Second))
	c.Probe()
	if !c.Suspected(1) {
		t.Fatal("partitioned node not suspected after silent probe rounds")
	}

	// Phase 3 — suspicion preempts: reads keep answering, now without
	// ever touching the suspected owner.
	for r := 0; r < 3; r++ {
		read("phase3 suspicion-preempted", false)
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
	// partitions are instant timeouts, suspicion skips the owner
	// entirely, and nothing ever waited out a gray peer.
	if worst > 10*time.Second {
		t.Fatalf("worst serving read took %v; degradation must bound latency", worst)
	}

	s := reg.Snapshot()
	for counter, min := range map[string]int64{
		"cluster_suspicions":         1,
		"cluster_failovers_hard":     1,
		"cluster_failovers_suspect":  1,
		"rpc_breaker_open":           1,
		"rpc_retry_budget_exhausted": 1,
		"serve_stale_fallbacks":      1,
	} {
		if got := s.Counters[counter]; got < min {
			t.Fatalf("%s = %d, want >= %d", counter, got, min)
		}
	}
}

// TestNoGoroutineLeakAfterClose is the post-soak leak gate: a client with
// the prober running, plus its probe connections and nodes, must unwind
// completely on Close.
func TestNoGoroutineLeakAfterClose(t *testing.T) {
	before := runtime.NumGoroutine()

	var ns []*ps.Node
	var addrs []string
	for i := 0; i < 2; i++ {
		n := startElasticNode(t)
		ns = append(ns, n)
		addrs = append(addrs, n.Addr())
	}
	c, err := DialOpts(4, addrs, Options{
		Detector: &DetectorConfig{Interval: 5 * time.Millisecond},
		Obs:      obs.NewRegistry(),
	})
	if err != nil {
		t.Fatal(err)
	}
	c.StartProber(2 * time.Millisecond)
	keys := testKeys(8)
	trainStep(t, c, 0, keys, 1)
	time.Sleep(20 * time.Millisecond) // let several probe rounds run
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
