package ps

import (
	"net/http/httptest"
	"path/filepath"
	"strings"
	"testing"

	"openembedding/internal/obs"
	"openembedding/internal/optim"
	"openembedding/internal/psengine"
	"openembedding/internal/rpc"
)

func nodeConfig() NodeConfig {
	return NodeConfig{
		Store: psengine.Config{
			Dim: 4, Optimizer: optim.NewSGD(0.1), Capacity: 1024, CacheEntries: 32,
		},
	}
}

func driveBatch(t *testing.T, cl *rpc.Client, batch int64, keys []uint64, grads []float32) []float32 {
	t.Helper()
	w, err := cl.Pull(batch, keys)
	if err != nil {
		t.Fatal(err)
	}
	if err := cl.EndPullPhase(batch); err != nil {
		t.Fatal(err)
	}
	if grads != nil {
		if err := cl.Push(batch, keys, grads); err != nil {
			t.Fatal(err)
		}
	}
	if err := cl.EndBatch(batch); err != nil {
		t.Fatal(err)
	}
	return w
}

func TestStartNodeAllEngines(t *testing.T) {
	for _, engine := range []string{"pmem-oe", "dram-ps", "ori-cache", "pmem-hash"} {
		t.Run(engine, func(t *testing.T) {
			cfg := nodeConfig()
			cfg.Engine = engine
			cfg.CheckpointDir = filepath.Join(t.TempDir(), "ckpt")
			n, err := StartNode("127.0.0.1:0", cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer n.Close()
			if n.Engine().Name() == "" {
				t.Fatal("engine has no name")
			}
			cl, err := rpc.Dial(n.Addr())
			if err != nil {
				t.Fatal(err)
			}
			defer cl.Close()
			w := driveBatch(t, cl, 0, []uint64{1, 2}, make([]float32, 8))
			if len(w) != 8 {
				t.Fatalf("pull returned %d floats", len(w))
			}
		})
	}
}

func TestStartNodeUnknownEngine(t *testing.T) {
	cfg := nodeConfig()
	cfg.Engine = "bogus"
	if _, err := StartNode("127.0.0.1:0", cfg); err == nil {
		t.Fatal("unknown engine accepted")
	}
}

// TestNodeRestartRecovers is the operational crash-restart loop: train,
// checkpoint, stop (which saves the PMem image), start again, verify the
// node recovered the checkpointed state.
func TestNodeRestartRecovers(t *testing.T) {
	image := filepath.Join(t.TempDir(), "shard.img")
	cfg := nodeConfig()
	cfg.PMemImage = image

	n, err := StartNode("127.0.0.1:0", cfg)
	if err != nil {
		t.Fatal(err)
	}
	cl, err := rpc.Dial(n.Addr())
	if err != nil {
		t.Fatal(err)
	}
	keys := []uint64{7, 8}
	grads := []float32{1, 1, 1, 1, 1, 1, 1, 1}
	driveBatch(t, cl, 0, keys, grads)
	driveBatch(t, cl, 1, keys, grads)
	if err := cl.RequestCheckpoint(1); err != nil {
		t.Fatal(err)
	}
	want := driveBatch(t, cl, 2, keys, nil) // post-batch-1 state
	cl.Close()
	if err := n.Close(); err != nil {
		t.Fatal(err)
	}

	re, err := StartNode("127.0.0.1:0", cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if re.RecoveredBatch != 1 {
		t.Fatalf("recovered batch = %d, want 1", re.RecoveredBatch)
	}
	cl2, err := rpc.Dial(re.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer cl2.Close()
	got := driveBatch(t, cl2, 2, keys, nil)
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("recovered[%d] = %v, want %v", i, got[i], want[i])
		}
	}
}

// TestNodeStoreObsReachesEngine: Store.Obs is the node's one home for
// observability. A registry set there reaches the engine, the RPC server
// and the serve handler, and ObsHandler serves it and its span ring.
func TestNodeStoreObsReachesEngine(t *testing.T) {
	reg := obs.NewRegistry()
	cfg := serveNodeConfig()
	cfg.Store.Obs = reg
	n, err := StartNode("127.0.0.1:0", cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()
	cl, err := rpc.Dial(n.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	keys := []uint64{1, 2, 3}
	driveBatch(t, cl, 0, keys, make([]float32, len(keys)*4))
	if _, err := cl.PullBags(false, []uint32{0, 3}, keys); err != nil {
		t.Fatal(err)
	}

	s := reg.Snapshot()
	// The engine times a sample of its pulls, so its series is looked for,
	// not counted.
	if _, ok := s.Histograms["engine_pull_ns"]; !ok {
		t.Error("no engine_pull_ns: the engine did not get Store.Obs")
	}
	if got := s.Counters["rpc_server_requests"]; got == 0 {
		t.Error("rpc_server_requests = 0: the RPC server did not get Store.Obs")
	}
	if got := s.Counters["serve_requests"]; got != 1 {
		t.Errorf("serve_requests = %d, want 1: the serve handler did not get Store.Obs", got)
	}
	reg.Start("test.span", "test", 0, 0).End()
	for path, want := range map[string]string{"/metrics": "engine_pull_ns", "/debug/obs": "test.span"} {
		rec := httptest.NewRecorder()
		n.ObsHandler().ServeHTTP(rec, httptest.NewRequest("GET", path, nil))
		if !strings.Contains(rec.Body.String(), want) {
			t.Errorf("ObsHandler %s does not show %s", path, want)
		}
	}
}
