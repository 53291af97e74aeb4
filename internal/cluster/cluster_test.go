package cluster

import (
	"errors"
	"math/rand"
	"path/filepath"
	"strings"
	"testing"

	"openembedding/internal/optim"
	"openembedding/internal/ps"
	"openembedding/internal/psengine"
	"openembedding/internal/rpc"
)

func storeConfig() psengine.Config {
	return psengine.Config{Dim: 4, Optimizer: optim.NewSGD(0.1), Capacity: 4096, CacheEntries: 64}
}

func startCluster(t *testing.T, engine string, nodes int) *Client {
	t.Helper()
	var addrs []string
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
	}
	c, err := Dial(4, addrs)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

// TestClusterMatchesSingleEngine drives the same workload through a 3-node
// PMem-OE cluster over TCP and through a single local engine; per-key state
// must agree exactly (entries are independent, so sharding cannot change
// values).
func TestClusterMatchesSingleEngine(t *testing.T) {
	cl := startCluster(t, "pmem-oe", 3)
	single := startCluster(t, "pmem-oe", 1)

	rng := rand.New(rand.NewSource(11))
	for b := int64(0); b < 8; b++ {
		seen := map[uint64]bool{}
		var keys []uint64
		for len(keys) < 6 {
			k := uint64(rng.Intn(300))
			if !seen[k] {
				seen[k] = true
				keys = append(keys, k)
			}
		}
		grads := make([]float32, len(keys)*4)
		for i := range grads {
			grads[i] = float32(rng.NormFloat64())
		}
		a := make([]float32, len(keys)*4)
		bvals := make([]float32, len(keys)*4)
		if err := cl.Pull(b, keys, a); err != nil {
			t.Fatal(err)
		}
		if err := single.Pull(b, keys, bvals); err != nil {
			t.Fatal(err)
		}
		for i := range a {
			if a[i] != bvals[i] {
				t.Fatalf("batch %d: cluster[%d]=%v single=%v", b, i, a[i], bvals[i])
			}
		}
		for _, c := range []*Client{cl, single} {
			if err := c.EndPullPhase(b); err != nil {
				t.Fatal(err)
			}
			if err := c.Push(b, keys, grads); err != nil {
				t.Fatal(err)
			}
			if err := c.EndBatch(b); err != nil {
				t.Fatal(err)
			}
		}
	}
	st, err := cl.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.Entries == 0 {
		t.Fatal("cluster stats empty")
	}
}

func TestClusterCheckpoint(t *testing.T) {
	cl := startCluster(t, "pmem-oe", 2)
	keys := []uint64{1, 2, 3, 4, 5}
	grads := make([]float32, len(keys)*4)
	dst := make([]float32, len(keys)*4)
	for b := int64(0); b < 3; b++ {
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
	if err := cl.RequestCheckpoint(2); err != nil {
		t.Fatal(err)
	}
	// Drive one more batch so the co-designed checkpoint completes.
	if err := cl.Pull(3, keys, dst); err != nil {
		t.Fatal(err)
	}
	cl.EndPullPhase(3)
	cl.Push(3, keys, grads)
	cl.EndBatch(3)

	v, err := cl.CompletedCheckpoint()
	if err != nil {
		t.Fatal(err)
	}
	if v != 2 {
		t.Fatalf("cluster completed checkpoint = %d, want 2", v)
	}
}

func TestDialFailures(t *testing.T) {
	if _, err := Dial(4, nil); err == nil {
		t.Fatal("empty address list accepted")
	}
	// A dead address is not a dial error — the connection is established
	// on demand, exactly as after a mid-run disconnect — but the first
	// request names the node and fails with a transport error once its
	// attempts are spent.
	c, err := DialOpts(4, []string{"127.0.0.1:1"}, Options{})
	if err != nil {
		t.Fatalf("dial of a dead address: %v", err)
	}
	defer c.Close()
	err = c.Pull(0, []uint64{1}, make([]float32, 4))
	if !errors.Is(err, rpc.ErrUnavailable) || !strings.Contains(err.Error(), "node 0 (127.0.0.1:1)") {
		t.Fatalf("pull from a dead address: %v, want a node-attributed ErrUnavailable", err)
	}
}

func TestClusterBufferValidation(t *testing.T) {
	cl := startCluster(t, "dram-ps", 2)
	if err := cl.Pull(0, []uint64{1}, make([]float32, 3)); err == nil {
		t.Fatal("bad pull buffer accepted")
	}
	if err := cl.Push(0, []uint64{1}, make([]float32, 5)); err == nil {
		t.Fatal("bad push buffer accepted")
	}
}
