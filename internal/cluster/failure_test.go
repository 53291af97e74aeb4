package cluster

import (
	"errors"
	"fmt"
	"net"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"openembedding/internal/obs"
	"openembedding/internal/ps"
	"openembedding/internal/rpc"
)

// startClusterOpts is startCluster with explicit dial options, returning the
// nodes so a test can kill one mid-batch.
func startClusterOpts(t *testing.T, engine string, nodes int, opts Options) (*Client, []*ps.Node) {
	t.Helper()
	var addrs []string
	var ns []*ps.Node
	for i := 0; i < nodes; i++ {
		n, err := ps.StartNode("127.0.0.1:0", ps.NodeConfig{
			Engine:        engine,
			Store:         storeConfig(),
			CheckpointDir: filepath.Join(t.TempDir(), "ckpt"),
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { n.Close() })
		addrs = append(addrs, n.Addr())
		ns = append(ns, n)
	}
	c, err := DialOpts(4, addrs, opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c, ns
}

// keysForAllNodes returns count keys spread so every node owns at least
// one under the default ring placement (a fresh cluster's ring is
// NewRing(0..nodes-1), so ownership is computable without a client).
func keysForAllNodes(t *testing.T, nodes, count int) []uint64 {
	t.Helper()
	ids := make([]uint64, nodes)
	for i := range ids {
		ids[i] = uint64(i)
	}
	ring := NewRing(ids)
	owned := make([]bool, nodes)
	var keys []uint64
	for k := uint64(0); len(keys) < count; k++ {
		n := ring.Owner(k)
		if !owned[n] || len(keys) >= nodes {
			owned[n] = true
			keys = append(keys, k)
		}
	}
	for n, ok := range owned {
		if !ok {
			t.Fatalf("no key found for node %d", n)
		}
	}
	return keys
}

// TestFanOutNodeFailure kills one server mid-batch and checks that the next
// Pull and Push fail promptly with an error naming the dead node, instead of
// hanging the whole fan-out.
func TestFanOutNodeFailure(t *testing.T) {
	cl, nodes := startClusterOpts(t, "dram-ps", 3, Options{
		RPC: rpc.Options{Timeout: 2 * time.Second},
	})
	keys := keysForAllNodes(t, 3, 9)
	dst := make([]float32, len(keys)*4)
	grads := make([]float32, len(keys)*4)

	// Batch 0 succeeds with all nodes alive.
	if err := cl.Pull(0, keys, dst); err != nil {
		t.Fatal(err)
	}
	if err := cl.EndPullPhase(0); err != nil {
		t.Fatal(err)
	}
	if err := cl.Push(0, keys, grads); err != nil {
		t.Fatal(err)
	}
	if err := cl.EndBatch(0); err != nil {
		t.Fatal(err)
	}

	// Kill node 1's server between batches.
	dead := 1
	deadAddr := nodes[dead].Addr()
	if err := nodes[dead].Close(); err != nil {
		t.Fatal(err)
	}

	start := time.Now()
	err := cl.Pull(1, keys, dst)
	if err == nil {
		t.Fatal("pull succeeded with a dead node")
	}
	if elapsed := time.Since(start); elapsed > 10*time.Second {
		t.Fatalf("pull took %v to notice the dead node", elapsed)
	}
	want := fmt.Sprintf("node %d (%s)", dead, deadAddr)
	if !strings.Contains(err.Error(), want) {
		t.Fatalf("pull error %q does not name %q", err, want)
	}

	// The broken connection does not poison the client: Push redials, is
	// refused by the still-dead node, and fails promptly and attributed too.
	start = time.Now()
	err = cl.Push(1, keys, grads)
	if err == nil {
		t.Fatal("push succeeded with a dead node")
	}
	if elapsed := time.Since(start); elapsed > 10*time.Second {
		t.Fatalf("push took %v to notice the dead node", elapsed)
	}
	if !strings.Contains(err.Error(), want) || !errors.Is(err, rpc.ErrUnavailable) {
		t.Fatalf("push error %q does not name %q as unavailable", err, want)
	}
}

// TestFanOutHungNodeTimesOut replaces one node with a listener that accepts
// and never responds — not even to the handshake, so the dial itself is
// deferred to the first request: the fan-out must surface the typed rpc
// timeout after the configured read deadline, attributed to the silent
// node, and keep errors.Is(err, rpc.ErrTimeout) working through the
// wrapper.
func TestFanOutHungNodeTimesOut(t *testing.T) {
	real, err := ps.StartNode("127.0.0.1:0", ps.NodeConfig{
		Engine:        "dram-ps",
		Store:         storeConfig(),
		CheckpointDir: filepath.Join(t.TempDir(), "ckpt"),
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { real.Close() })

	hung, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer hung.Close()
	done := make(chan struct{})
	defer close(done)
	go func() {
		for {
			conn, err := hung.Accept()
			if err != nil {
				return
			}
			go func() { <-done; conn.Close() }()
		}
	}()

	cl, err := DialOpts(4, []string{real.Addr(), hung.Addr().String()}, Options{
		RPC: rpc.Options{Timeout: 150 * time.Millisecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cl.Close() })

	keys := keysForAllNodes(t, 2, 4)
	dst := make([]float32, len(keys)*4)
	start := time.Now()
	err = cl.Pull(0, keys, dst)
	if err == nil {
		t.Fatal("pull succeeded with a silent node")
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("pull took %v, read deadline was 150ms", elapsed)
	}
	if !errors.Is(err, rpc.ErrTimeout) {
		t.Fatalf("error %v lost ErrTimeout through the cluster wrapper", err)
	}
	var te *rpc.TimeoutError
	if !errors.As(err, &te) || te.Op != "hello" {
		t.Fatalf("error %v is not a handshake *TimeoutError", err)
	}
	if want := fmt.Sprintf("node 1 (%s)", hung.Addr()); !strings.Contains(err.Error(), want) {
		t.Fatalf("error %q does not name %q", err, want)
	}
}

// TestClusterRecoverAfterCrash exercises the coordinated recovery
// protocol end to end: a node crash-restarts (losing un-checkpointed
// state), the next fan-out fails recoverably, and Recover(commit) rolls
// every node — healthy ones included — back to the cluster-wide committed
// checkpoint so a replay resumes from a consistent state.
func TestClusterRecoverAfterCrash(t *testing.T) {
	reg := obs.NewRegistry()
	store := storeConfig()
	store.RetainCheckpoints = 2
	var addrs []string
	var ns []*ps.Node
	for i := 0; i < 3; i++ {
		n, err := ps.StartNode("127.0.0.1:0", ps.NodeConfig{Engine: "pmem-oe", Store: store})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { n.Close() })
		addrs = append(addrs, n.Addr())
		ns = append(ns, n)
	}
	cl, err := DialOpts(4, addrs, Options{
		RPC: rpc.Options{
			MaxAttempts: 5,
			Timeout:     2 * time.Second,
		},
		Obs: reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cl.Close() })

	keys := keysForAllNodes(t, 3, 9)
	grads := make([]float32, len(keys)*4)
	for i := range grads {
		grads[i] = 1.0
	}
	runBatch := func(b int64) []float32 {
		t.Helper()
		dst := make([]float32, len(keys)*4)
		if err := cl.Pull(b, keys, dst); err != nil {
			t.Fatalf("pull %d: %v", b, err)
		}
		if err := cl.EndPullPhase(b); err != nil {
			t.Fatal(err)
		}
		if err := cl.Push(b, keys, grads); err != nil {
			t.Fatalf("push %d: %v", b, err)
		}
		if err := cl.EndBatch(b); err != nil {
			t.Fatal(err)
		}
		return dst
	}

	runBatch(0)
	if err := cl.RequestCheckpoint(0); err != nil {
		t.Fatal(err)
	}
	if done, err := cl.CompletedCheckpoint(); err != nil {
		t.Fatal(err)
	} else if done < 0 {
		t.Fatal("checkpoint 0 never committed cluster-wide")
	}

	// Batch 1 trains past the checkpoint; its updates will be lost and
	// replayed. Record the state the replay must see again.
	atCkpt := runBatch(1)

	if err := ns[1].Crash(); err != nil {
		t.Fatal(err)
	}
	if _, err := ns[1].Restart(); err != nil {
		t.Fatal(err)
	}

	_, err = func() ([]float32, error) {
		dst := make([]float32, len(keys)*4)
		return dst, cl.Pull(2, keys, dst)
	}()
	if err == nil {
		t.Fatal("pull succeeded against a restarted, fenced node")
	}
	if !cl.Recoverable(err) {
		t.Fatalf("crash-induced failure not Recoverable: %v", err)
	}

	commit, err := cl.CompletedCheckpoint()
	if err != nil {
		t.Fatal(err)
	}
	if commit != 0 {
		t.Fatalf("cluster commit = %d, want 0", commit)
	}
	if err := cl.Recover(commit); err != nil {
		t.Fatalf("recover: %v", err)
	}
	if got := reg.Snapshot().Counters["cluster_replays"]; got != 1 {
		t.Fatalf("cluster_replays = %d, want 1", got)
	}

	// Replaying batch 1 pulls exactly the state the first attempt saw:
	// every node — including the two that never crashed — rewound to the
	// checkpoint.
	replayed := make([]float32, len(keys)*4)
	if err := cl.Pull(1, keys, replayed); err != nil {
		t.Fatalf("pull after recover: %v", err)
	}
	for i := range replayed {
		if replayed[i] != atCkpt[i] {
			t.Fatalf("replayed[%d] = %v, want %v (bit-exact)", i, replayed[i], atCkpt[i])
		}
	}
	for i, n := range ns {
		if n.Epoch() < 1 {
			t.Errorf("node %d epoch = %d, want >= 1 after recovery", i, n.Epoch())
		}
	}
}

// TestDefaultClientTrainsAcrossCrash is the production pair's recovery
// pin: a client dialed with zero-value options — what openembedding.Dial,
// oectl and the benchmark use — against nodes started with nothing but a
// store shape — what oeps and the public Server start — trains across a
// node Crash → Restart → Recover and finishes bit-identical to the
// fault-free run. Its connection
// to the crashed node redials, the handshake finds the bumped epoch, the
// fence surfaces as a recoverable error, and Recover + replay from the
// committed checkpoint converge.
func TestDefaultClientTrainsAcrossCrash(t *testing.T) {
	const nodes, batches, ckptAt, crashAfter = 3, 8, 2, 4
	keys := keysForAllNodes(t, nodes, 12)
	gradsFor := func(b int64) []float32 {
		g := make([]float32, len(keys)*4)
		for i := range g {
			g[i] = float32(b+1) * 0.25 * float32(i%5+1)
		}
		return g
	}
	train := func(crash bool) []float32 {
		t.Helper()
		var addrs []string
		var ns []*ps.Node
		for i := 0; i < nodes; i++ {
			n, err := ps.StartNode("127.0.0.1:0", ps.NodeConfig{Store: storeConfig()})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { n.Close() })
			addrs = append(addrs, n.Addr())
			ns = append(ns, n)
		}
		cl, err := Dial(4, addrs)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { cl.Close() })

		dst := make([]float32, len(keys)*4)
		step := func(b int64) error {
			if err := cl.Pull(b, keys, dst); err != nil {
				return err
			}
			if err := cl.EndPullPhase(b); err != nil {
				return err
			}
			if err := cl.Push(b, keys, gradsFor(b)); err != nil {
				return err
			}
			return cl.EndBatch(b)
		}
		for b := int64(0); b < batches; b++ {
			err := step(b)
			if err != nil && crash && cl.Recoverable(err) {
				commit, cerr := cl.CompletedCheckpoint()
				if cerr != nil {
					t.Fatalf("completed checkpoint after crash: %v", cerr)
				}
				if commit != ckptAt {
					t.Fatalf("cluster commit = %d, want %d", commit, ckptAt)
				}
				if err := cl.Recover(commit); err != nil {
					t.Fatalf("recover to %d: %v", commit, err)
				}
				crash = false // one crash per run
				b = commit    // the loop increment resumes at commit+1
				continue
			}
			if err != nil {
				t.Fatalf("batch %d: %v", b, err)
			}
			if b == ckptAt {
				if err := cl.RequestCheckpoint(b); err != nil {
					t.Fatal(err)
				}
				if done, err := cl.CompletedCheckpoint(); err != nil {
					t.Fatal(err)
				} else if done < b {
					t.Fatalf("checkpoint %d never committed cluster-wide", b)
				}
			}
			if crash && b == crashAfter {
				if err := ns[1].Crash(); err != nil {
					t.Fatal(err)
				}
				if _, err := ns[1].Restart(); err != nil {
					t.Fatal(err)
				}
			}
		}
		if crash {
			t.Fatal("the crash never surfaced as a recoverable error")
		}
		if err := cl.Pull(batches, keys, dst); err != nil {
			t.Fatalf("final pull: %v", err)
		}
		return dst
	}

	want := train(false)
	got := train(true)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("weight [%d] = %v after crash+recover, want %v (bit-identical to the fault-free run)", i, got[i], want[i])
		}
	}
}

// TestClusterMetricsAndSpans checks the worker-side fan-out metrics and
// per-batch spans populate during a normal batch, and that the spans share
// one clock: every node span lies inside its batch's pull or push span.
func TestClusterMetricsAndSpans(t *testing.T) {
	reg := obs.NewRegistry()
	cl, _ := startClusterOpts(t, "dram-ps", 3, Options{Obs: reg})
	keys := keysForAllNodes(t, 3, 9)
	dst := make([]float32, len(keys)*4)
	grads := make([]float32, len(keys)*4)

	for b := int64(0); b < 2; b++ {
		if err := cl.Pull(b, keys, dst); err != nil {
			t.Fatal(err)
		}
		if err := cl.EndPullPhase(b); err != nil {
			t.Fatal(err)
		}
		if err := cl.Push(b, keys, grads); err != nil {
			t.Fatal(err)
		}
		if err := cl.EndBatch(b); err != nil {
			t.Fatal(err)
		}
	}

	s := reg.Snapshot()
	if got := s.Histograms["cluster_pull_ns"].Count; got != 2 {
		t.Errorf("cluster_pull_ns count = %d, want 2", got)
	}
	if got := s.Histograms["cluster_push_ns"].Count; got != 2 {
		t.Errorf("cluster_push_ns count = %d, want 2", got)
	}
	// Width: every pull and push touched all 3 nodes.
	fw := s.Histograms["cluster_fanout_width"]
	if fw.Count != 4 || fw.Max != 3 {
		t.Errorf("cluster_fanout_width = %+v, want count 4 max 3", fw)
	}
	if got := s.Histograms["cluster_straggler_ns"].Count; got != 4 {
		t.Errorf("cluster_straggler_ns count = %d, want 4", got)
	}

	var pulls, nodeSpans int
	for _, sp := range reg.Spans() {
		switch sp.Name {
		case "cluster.pull":
			pulls++
		case "cluster.node":
			nodeSpans++
		}
	}
	if pulls != 2 {
		t.Errorf("cluster.pull spans = %d, want 2", pulls)
	}
	if nodeSpans != 12 { // 3 nodes x (pull+push) x 2 batches
		t.Errorf("cluster.node spans = %d, want 12", nodeSpans)
	}
	spans := reg.Spans()
	for _, n := range spans {
		if n.Name != "cluster.node" {
			continue
		}
		inside := false
		for _, p := range spans {
			if (p.Name == "cluster.pull" || p.Name == "cluster.push") && p.Batch == n.Batch &&
				p.Start <= n.Start && n.Start+n.Dur <= p.Start+p.Dur {
				inside = true
			}
		}
		if !inside {
			t.Errorf("cluster.node span %+v lies in no cluster.pull or cluster.push span of batch %d", n, n.Batch)
		}
	}
}
