package cluster

import (
	"errors"
	"fmt"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"openembedding/internal/obs"
	"openembedding/internal/ps"
	"openembedding/internal/psengine"
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
// training continues across all 4 nodes.
func TestClusterJoinMigratesAndServes(t *testing.T) {
	c, _, reg := startElasticCluster(t, 3)
	keys := testKeys(48)
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

// TestPullBagsFailoverOnDeadNode is the replicated-serving acceptance
// test: after a replica sync, killing one node surfaces ZERO errors to
// PullBags callers — the dead node's keys are re-read from their
// replicas — and the failover counter accounts for it.
func TestPullBagsFailoverOnDeadNode(t *testing.T) {
	c, ns, reg := startElasticCluster(t, 3)
	keys := testKeys(36)
	w := trainStep(t, c, 0, keys, 1)
	for i := range w {
		w[i] -= 0.1
	}

	pushed, err := c.SyncReplicas(keys)
	if err != nil {
		t.Fatalf("sync replicas: %v", err)
	}
	if pushed != len(keys) {
		t.Fatalf("replicas pushed = %d, want %d", pushed, len(keys))
	}

	dead := 1
	if err := ns[dead].Close(); err != nil {
		t.Fatal(err)
	}

	// Single-key bags: every key must come back bit-exact, dead owner or
	// not, with no error surfaced.
	offs := make([]uint32, len(keys)+1)
	for i := range keys {
		offs[i+1] = uint32(i + 1)
	}
	out := make([]float32, len(keys)*c.dim)
	if err := c.PullBags(false, offs, keys, out); err != nil {
		t.Fatalf("pull-bags with dead node: %v", err)
	}
	for i := range out {
		if out[i] != w[i] {
			t.Fatalf("failover row [%d] = %v, want %v (bit-exact replica)", i, out[i], w[i])
		}
	}
	s := reg.Snapshot()
	if got := s.Counters["cluster_failovers"]; got < 1 {
		t.Fatalf("cluster_failovers = %d, want >= 1", got)
	}
	// Cause attribution: a dead owner's failed read is a hard failover —
	// two reads are fewer than downAfter, so no read was skipped.
	if hard := s.Counters["cluster_failovers_hard"]; hard != s.Counters["cluster_failovers"] {
		t.Fatalf("cluster_failovers_hard = %d, want %d (all failovers hard-caused)",
			hard, s.Counters["cluster_failovers"])
	}
	if got := s.Counters["cluster_failovers_suspect"]; got != 0 {
		t.Fatalf("cluster_failovers_suspect = %d, want 0 (the owner never went down)", got)
	}

	// A pooled bag over all keys still agrees with the reference sum
	// (within float tolerance: replica partials sum in a different order).
	sumOut := make([]float32, c.dim)
	if err := c.PullBags(false, []uint32{0, uint32(len(keys))}, keys, sumOut); err != nil {
		t.Fatalf("pooled bag with dead node: %v", err)
	}
	for d := 0; d < c.dim; d++ {
		var want float32
		for i := range keys {
			want += w[i*c.dim+d]
		}
		diff := sumOut[d] - want
		if diff > 1e-3 || diff < -1e-3 {
			t.Fatalf("pooled[%d] = %v, want %v", d, sumOut[d], want)
		}
	}
}

// TestPullBagsFailoverUnsyncedReplica: what answers after a failure is a
// version of the row, or an error. Nothing schedules SyncReplicas, so after
// an owner dies its keys' Ring.Secondary nodes may never have been sent the
// rows — and a replica that serves what an owner serves for an unknown key,
// the initializer, would answer a trained key with a row that was never a
// version of it, as a live answer. A failover read therefore says it is one,
// and a replica answers only rows it holds: an unsynced key fails the read
// with an error naming the owner, the replica node, the key and the owner's
// transport failure — also once the owner is down and its read is skipped,
// then asked after all; a key some sync covered answers bit-exactly; and an
// owner still answers a key nobody trained with its initializer.
func TestPullBagsFailoverUnsyncedReplica(t *testing.T) {
	c, ns, _ := startElasticCluster(t, 2)
	keys := testKeys(24)
	w := trainStep(t, c, 0, keys, 1)
	for i := range w {
		w[i] -= 0.1
	}
	const dead = 1
	addr := ns[dead].Addr()
	var deadKeys []uint64
	for _, k := range keys {
		if c.Owner(k) == dead {
			deadKeys = append(deadKeys, k)
		}
	}
	if len(deadKeys) < 2 {
		t.Fatalf("node %d owns %d of the keys, the test needs 2", dead, len(deadKeys))
	}
	// The owner goes away and comes back on its address, so a later
	// SyncReplicas can read it; its state is untouched throughout.
	down := func() {
		t.Helper()
		if err := ns[dead].Unlisten(); err != nil {
			t.Fatal(err)
		}
	}
	up := func() {
		t.Helper()
		if err := ns[dead].Listen(addr); err != nil {
			t.Fatal(err)
		}
	}
	offs := make([]uint32, len(keys)+1)
	for i := range keys {
		offs[i+1] = uint32(i + 1)
	}
	out := make([]float32, len(keys)*c.dim)
	wantErr := func(label string, err error, res BagResult, key uint64) {
		t.Helper()
		if err == nil {
			t.Fatalf("%s: read answered (stale=%v) though no replica holds key %d", label, res.Stale, key)
		}
		for _, part := range []string{
			fmt.Sprintf("cluster: node %d (%s)", dead, addr),
			"replica node 0",
			fmt.Sprintf("no replica of key %d on this node", key),
		} {
			if !strings.Contains(err.Error(), part) {
				t.Fatalf("%s: error %q does not name %q", label, err, part)
			}
		}
		if !errors.Is(err, rpc.ErrUnavailable) {
			t.Fatalf("%s: error %q does not carry the owner's transport failure", label, err)
		}
	}

	// downAfter reads fail on the owner; the later ones skip it, ask it
	// after all, and must say the same.
	down()
	for r := 0; r < downAfter+2; r++ {
		res, err := c.PullBagsResult(false, offs, keys, out)
		if err == nil {
			wrong := 0
			for i := range keys {
				if !slices.Equal(out[i*c.dim:(i+1)*c.dim], w[i*c.dim:(i+1)*c.dim]) {
					wrong++
				}
			}
			t.Errorf("nothing synced: %d of %d keys answered with rows that are not the trained rows", wrong, len(keys))
		}
		wantErr(fmt.Sprintf("nothing synced, read %d", r), err, res, deadKeys[0])
	}
	if !c.Down(dead) {
		t.Fatalf("owner not down after %d failed reads", downAfter+2)
	}

	// One of the dead node's keys synced: a bag that also holds another
	// still fails, on the first key no sync covered.
	up()
	if _, err := c.SyncReplicas(deadKeys[:1]); err != nil {
		t.Fatalf("sync replicas: %v", err)
	}
	down()
	pooled := make([]float32, c.dim)
	res, err := c.PullBagsResult(false, []uint32{0, uint32(len(keys))}, keys, pooled)
	wantErr("partially synced bag", err, res, deadKeys[1])
	one := make([]float32, c.dim)
	if err := c.PullBags(false, []uint32{0, 1}, deadKeys[:1], one); err != nil {
		t.Fatalf("the synced key alone: %v", err)
	}

	up()
	if _, err := c.SyncReplicas(keys); err != nil {
		t.Fatalf("sync replicas: %v", err)
	}
	down()
	res, err = c.PullBagsResult(false, offs, keys, out)
	if err != nil || res.Stale {
		t.Fatalf("synced read = (stale=%v, %v), want a live answer", res.Stale, err)
	}
	for i := range out {
		if out[i] != w[i] {
			t.Fatalf("failover row [%d] = %v, want %v (bit-exact replica)", i, out[i], w[i])
		}
	}

	// An owner read of a key nobody trained is still the initializer row.
	fresh := uint64(1 << 40)
	for c.Owner(fresh) == dead {
		fresh++
	}
	if err := c.PullBags(false, []uint32{0, 1}, []uint64{fresh}, one); err != nil {
		t.Fatalf("owner read of an untrained key: %v", err)
	}
	init := make([]float32, c.dim)
	psengine.XavierInit(c.dim)(fresh, init)
	for i := range init {
		if one[i] != init[i] {
			t.Fatalf("untrained key row = %v, want the initializer %v", one, init)
		}
	}
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
