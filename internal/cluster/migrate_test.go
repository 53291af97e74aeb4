package cluster

import (
	"fmt"
	"path/filepath"
	"strings"
	"testing"

	"openembedding/internal/obs"
	"openembedding/internal/ps"
	"openembedding/internal/rpc"
)

// startElasticNode starts one serving PMem-OE node for the elasticity
// tests.
func startElasticNode(t *testing.T) *ps.Node {
	t.Helper()
	store := storeConfig()
	store.RetainCheckpoints = 2
	n, err := ps.StartNode("127.0.0.1:0", ps.NodeConfig{
		Engine:        "pmem-oe",
		Serve:         true,
		Store:         store,
		CheckpointDir: filepath.Join(t.TempDir(), "ckpt"),
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { n.Close() })
	return n
}

// startElasticCluster starts a serving PMem-OE cluster with metrics and
// the default ring placement.
func startElasticCluster(t *testing.T, nodes int) (*Client, []*ps.Node, *obs.Registry) {
	t.Helper()
	reg := obs.NewRegistry()
	var addrs []string
	var ns []*ps.Node
	for i := 0; i < nodes; i++ {
		n := startElasticNode(t)
		addrs = append(addrs, n.Addr())
		ns = append(ns, n)
	}
	c, err := DialOpts(4, addrs, Options{Obs: reg})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c, ns, reg
}

// trainStep runs one full batch: pull (materializing keys), end pull
// phase, push grads of g, seal.
func trainStep(t *testing.T, c *Client, b int64, keys []uint64, g float32) []float32 {
	t.Helper()
	dst := make([]float32, len(keys)*c.dim)
	if err := c.Pull(b, keys, dst); err != nil {
		t.Fatalf("pull %d: %v", b, err)
	}
	if err := c.EndPullPhase(b); err != nil {
		t.Fatal(err)
	}
	grads := make([]float32, len(keys)*c.dim)
	for i := range grads {
		grads[i] = g
	}
	if err := c.Push(b, keys, grads); err != nil {
		t.Fatalf("push %d: %v", b, err)
	}
	if err := c.EndBatch(b); err != nil {
		t.Fatal(err)
	}
	return dst
}

// pullExact pulls keys at batch b and requires bit-exact equality to want.
func pullExact(t *testing.T, label string, c *Client, b int64, keys []uint64, want []float32) {
	t.Helper()
	got := make([]float32, len(keys)*c.dim)
	if err := c.Pull(b, keys, got); err != nil {
		t.Fatalf("%s: pull: %v", label, err)
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("%s: [%d] = %v, want %v (bit-exact)", label, i, got[i], want[i])
		}
	}
}

func testKeys(n int) []uint64 {
	keys := make([]uint64, n)
	for i := range keys {
		keys[i] = uint64(i*3 + 1)
	}
	return keys
}

// TestClusterJoinMigratesAndServes grows a live 3-node cluster to 4: the
// join migrates the new node's arcs, flips the ownership epoch, and every
// trained value reads back bit-exactly through the new topology — then
// training continues across all 4 nodes. Key 0 is among the moved keys: it
// is the first key an export considers.
func TestClusterJoinMigratesAndServes(t *testing.T) {
	c, _, reg := startElasticCluster(t, 3)
	keys := append([]uint64{0}, testKeys(48)...)
	w := trainStep(t, c, 0, keys, 1) // post-push rows: w - 0.1
	for i := range w {
		w[i] -= 0.1
	}

	joiner := startElasticNode(t)
	if err := c.Join(0, joiner.Addr()); err != nil {
		t.Fatalf("join: %v", err)
	}
	if got := c.Nodes(); got != 4 {
		t.Fatalf("nodes = %d, want 4", got)
	}
	if got := c.Epoch(); got != 1 {
		t.Fatalf("ownership epoch = %d, want 1", got)
	}
	newOwned := 0
	for _, k := range keys {
		if c.Owner(k) == 3 {
			newOwned++
		}
	}
	if newOwned == 0 {
		t.Fatal("new node owns none of the trained keys; enlarge the key set")
	}
	if c.Owner(0) != 3 {
		t.Fatalf("key 0 is owned by node %d after the join, want the new node 3", c.Owner(0))
	}
	s := reg.Snapshot()
	if got := s.Counters["cluster_migrations"]; got != 1 {
		t.Fatalf("cluster_migrations = %d, want 1", got)
	}
	if got := s.Counters["cluster_migrated_keys"]; got < int64(newOwned) {
		t.Fatalf("cluster_migrated_keys = %d, want >= %d", got, newOwned)
	}
	if got := s.Histograms["cluster_migration_ns"].Count; got != 1 {
		t.Fatalf("cluster_migration_ns count = %d, want 1", got)
	}

	// Every key reads back its trained value through the new owners.
	pullExact(t, "post-join", c, 1, keys, w)

	// The moved range really left its sources: the cluster-wide entry
	// count is unchanged (adopted on the joiner, dropped at the sources).
	st, err := c.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.Entries != int64(len(keys)) {
		t.Fatalf("cluster entries = %d, want %d (moved keys must leave their source)", st.Entries, len(keys))
	}

	// Training continues through the grown cluster.
	trainStep(t, c, 1, keys, 1)
	for i := range w {
		w[i] -= 0.1
	}
	pullExact(t, "post-join train", c, 2, keys, w)
}

// TestClusterLeaveMigratesAndServes shrinks 3 nodes to 2: the leaver's
// arcs migrate out, the epoch flips, values survive bit-exactly, and
// training continues.
func TestClusterLeaveMigratesAndServes(t *testing.T) {
	c, _, reg := startElasticCluster(t, 3)
	keys := testKeys(48)
	w := trainStep(t, c, 0, keys, 1)
	for i := range w {
		w[i] -= 0.1
	}

	if err := c.Leave(0, 1); err != nil {
		t.Fatalf("leave: %v", err)
	}
	if got := c.Nodes(); got != 2 {
		t.Fatalf("nodes = %d, want 2", got)
	}
	if got := c.Epoch(); got != 1 {
		t.Fatalf("ownership epoch = %d, want 1", got)
	}
	if got := reg.Snapshot().Counters["cluster_migrations"]; got != 1 {
		t.Fatalf("cluster_migrations = %d, want 1", got)
	}

	pullExact(t, "post-leave", c, 1, keys, w)
	st, err := c.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.Entries != int64(len(keys)) {
		t.Fatalf("cluster entries = %d, want %d", st.Entries, len(keys))
	}

	trainStep(t, c, 1, keys, 1)
	for i := range w {
		w[i] -= 0.1
	}
	pullExact(t, "post-leave train", c, 2, keys, w)
}

// TestClusterJoinDeltaReplay trains BETWEEN migration copy rounds (via the
// test hook): the delta round must pick up rows pushed after the full
// copy, so the post-join state reflects every batch.
func TestClusterJoinDeltaReplay(t *testing.T) {
	c, _, _ := startElasticCluster(t, 2)
	keys := testKeys(32)
	trainStep(t, c, 0, keys, 1)

	rounds := 0
	c.migrateHook = func(round int, cur int64) int64 {
		rounds++
		if round == 0 {
			// Push a batch mid-migration: the copied rows are now stale.
			trainStep(t, c, cur+1, keys, 1)
			return cur + 1
		}
		return cur
	}
	joiner := startElasticNode(t)
	if err := c.Join(0, joiner.Addr()); err != nil {
		t.Fatalf("join: %v", err)
	}
	c.migrateHook = nil
	if rounds < 2 {
		t.Fatalf("copy rounds = %d, want >= 2 (full copy + delta)", rounds)
	}

	// Both batches' updates must be visible through the new owners.
	want := make([]float32, len(keys)*c.dim)
	init := make([]float32, len(keys)*c.dim)
	single, _, _ := startElasticCluster(t, 1)
	if err := single.Pull(0, keys, init); err != nil {
		t.Fatal(err)
	}
	for i := range want {
		// Two sequential SGD steps (lr=0.1, g=1), in float32 like the engine.
		want[i] = init[i] - 0.1
		want[i] -= 0.1
	}
	pullExact(t, "post-delta-join", c, 2, keys, want)
}

// TestBroadcastPartialFailure: a broadcast against a cluster with one dead
// node fails with an error naming that node, and the remaining
// connections stay usable for work routed to live nodes.
func TestBroadcastPartialFailure(t *testing.T) {
	c, ns, _ := startElasticCluster(t, 3)
	keys := keysForAllNodes(t, 3, 9)
	dst := make([]float32, len(keys)*c.dim)
	if err := c.Pull(0, keys, dst); err != nil {
		t.Fatal(err)
	}

	dead := 2
	deadAddr := ns[dead].Addr()
	if err := ns[dead].Close(); err != nil {
		t.Fatal(err)
	}

	err := c.EndPullPhase(0)
	if err == nil {
		t.Fatal("broadcast succeeded with a dead node")
	}
	if want := fmt.Sprintf("node %d (%s)", dead, deadAddr); !strings.Contains(err.Error(), want) {
		t.Fatalf("broadcast error %q does not name %q", err, want)
	}

	// Live nodes processed their half of the broadcast and still serve:
	// re-pull only the keys the live nodes own.
	var live []uint64
	for _, k := range keys {
		if c.Owner(k) != dead {
			live = append(live, k)
		}
	}
	if len(live) == 0 {
		t.Fatal("no keys on live nodes")
	}
	if err := c.Pull(0, live, make([]float32, len(live)*c.dim)); err != nil {
		t.Fatalf("live nodes unusable after partial broadcast failure: %v", err)
	}
}

// TestPingInfo: the health RPC reports the node's epoch, a positive RTT,
// and whether the serving tier is mounted.
func TestPingInfo(t *testing.T) {
	serving := startElasticNode(t)
	cl, err := rpc.Dial(serving.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	h, err := cl.PingInfo()
	if err != nil {
		t.Fatal(err)
	}
	if !h.Serving {
		t.Error("serving node reports Serving=false")
	}
	if h.Epoch != serving.Epoch() {
		t.Errorf("ping epoch = %d, node epoch = %d", h.Epoch, serving.Epoch())
	}
	if h.RTT <= 0 {
		t.Errorf("ping RTT = %v, want > 0", h.RTT)
	}

	plain, err := ps.StartNode("127.0.0.1:0", ps.NodeConfig{
		Engine: "dram-ps", Store: storeConfig(),
		CheckpointDir: filepath.Join(t.TempDir(), "ckpt"),
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { plain.Close() })
	cl2, err := rpc.Dial(plain.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer cl2.Close()
	h2, err := cl2.PingInfo()
	if err != nil {
		t.Fatal(err)
	}
	if h2.Serving {
		t.Error("non-serving node reports Serving=true")
	}
}
