package ps

import (
	"strings"
	"testing"
	"time"

	"openembedding/internal/optim"
	"openembedding/internal/psengine"
	"openembedding/internal/rpc"
	"openembedding/internal/simclock"
)

func serveNodeConfig() NodeConfig {
	return NodeConfig{
		Engine: "pmem-oe",
		Serve:  true,
		Store: psengine.Config{
			Dim:               4,
			Optimizer:         optim.NewSGD(0.1),
			Capacity:          256,
			CacheEntries:      64,
			Meter:             simclock.NewMeter(),
			Shards:            2,
			RetainCheckpoints: 2,
		},
	}
}

func startServeNode(t *testing.T) (*Node, *rpc.Client) {
	t.Helper()
	n, err := StartNode("127.0.0.1:0", serveNodeConfig())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { n.Close() })
	cl, err := rpc.DialOpts(n.Addr(), rpc.Options{
		Retry:   rpc.RetryPolicy{MaxAttempts: 5, Backoff: time.Millisecond},
		Timeout: 2 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cl.Close() })
	return n, cl
}

// sumRows pools per-key rows (fetched over the wire) the way the server
// does: sequential float32 adds in bag order.
func sumRows(w []float32, dim int, lo, hi int) []float32 {
	out := make([]float32, dim)
	copy(out, w[lo*dim:(lo+1)*dim])
	for j := lo + 1; j < hi; j++ {
		for i := 0; i < dim; i++ {
			out[i] += w[j*dim+i]
		}
	}
	return out
}

// TestNodeServesPullBags: a Serve-enabled node answers MsgPullBag with
// server-side pooling that matches its own Pull rows.
func TestNodeServesPullBags(t *testing.T) {
	n, cl := startServeNode(t)
	if n.ServeHandler() == nil {
		t.Fatal("serve handler missing on a Serve node")
	}
	keys := []uint64{1, 2, 3, 4, 5}
	w := driveConst(t, cl, 0, keys, 1.0)
	// driveConst returns the pre-push pull; serving sees the post-push rows
	// (one SGD step: lr=0.1, g=1).
	for i := range w {
		w[i] -= 0.1
	}

	// Bags: [1 2] [] [3 4 5]
	offsets := []uint32{0, 2, 2, 5}
	got, err := cl.PullBags(false, offsets, keys)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3*4 {
		t.Fatalf("got %d floats, want 12", len(got))
	}
	want := append(sumRows(w, 4, 0, 2), make([]float32, 4)...)
	want = append(want, sumRows(w, 4, 2, 5)...)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("bag floats[%d] = %v, want %v", i, got[i], want[i])
		}
	}

	// Mean mode divides by the full bag count.
	gotMean, err := cl.PullBags(true, []uint32{0, 2}, keys[:2])
	if err != nil {
		t.Fatal(err)
	}
	inv := float32(1) / 2
	for i := 0; i < 4; i++ {
		if want := (w[i] + w[4+i]) * inv; gotMean[i] != want {
			t.Fatalf("mean bag[%d] = %v, want %v", i, gotMean[i], want)
		}
	}
}

// TestNodeWithoutServeRejectsPullBags: the hook is opt-in; a plain node
// answers MsgPullBag with a clean remote error, not a dropped connection.
func TestNodeWithoutServeRejectsPullBags(t *testing.T) {
	cfg := serveNodeConfig()
	cfg.Serve = false
	n, err := StartNode("127.0.0.1:0", cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()
	if n.ServeHandler() != nil {
		t.Fatal("serve handler present without cfg.Serve")
	}
	cl, err := rpc.Dial(n.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	driveBatch(t, cl, 0, []uint64{1}, nil)
	_, err = cl.PullBags(false, []uint32{0, 1}, []uint64{1})
	if err == nil || !strings.Contains(err.Error(), "unsupported") {
		t.Fatalf("bag pull on a non-serving node: %v, want unsupported error", err)
	}
	if err := cl.Ping(); err != nil {
		t.Fatalf("connection broken after rejected bag pull: %v", err)
	}
}

// TestNodeServeSurvivesCrashRestart: the node's one handler is re-wired to
// the recovered engine by Restart, and — because bag reads are read-only
// and eventually consistent — a stale client's PullBags works across the
// epoch fence without AdoptEpoch, returning the recovered (checkpointed)
// rows.
func TestNodeServeSurvivesCrashRestart(t *testing.T) {
	n, cl := startServeNode(t)
	keys := []uint64{1, 2, 3}
	w0 := driveConst(t, cl, 0, keys, 1.0)
	commitOverWire(t, cl, 0)
	driveConst(t, cl, 1, keys, 1.0) // not checkpointed; lost on crash

	h0 := n.ServeHandler()
	if err := n.Crash(); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.PullBags(false, []uint32{0, 1}, keys[:1]); err == nil {
		t.Fatal("bag pull succeeded against a crashed node")
	}
	if _, err := n.Restart(); err != nil {
		t.Fatal(err)
	}
	if n.ServeHandler() != h0 {
		t.Fatal("restart replaced the node's serve handler")
	}

	// Training pulls are fenced until the client re-adopts the epoch —
	// but serving is not: it reads whatever state the node has.
	if _, err := cl.Pull(2, keys); err == nil {
		t.Fatal("stale training pull not fenced after restart")
	}
	got, err := cl.PullBags(false, []uint32{0, 3}, keys)
	if err != nil {
		t.Fatalf("bag pull across the epoch fence: %v", err)
	}
	// Recovered state is the checkpoint at batch 0: one SGD step applied.
	want := make([]float32, 4)
	for j := 0; j < 3; j++ {
		for i := 0; i < 4; i++ {
			want[i] += w0[j*4+i] - 0.1
		}
	}
	for i := range want {
		if d := got[i] - want[i]; d > 1e-5 || d < -1e-5 {
			t.Fatalf("recovered bag[%d] = %v, want %v", i, got[i], want[i])
		}
	}
}

// TestNodeServeStateSurvivesEngineSwaps: the node's handler is the node's.
// The same handler answers bag reads before a crash, after the restart and
// after a rollback.
func TestNodeServeStateSurvivesEngineSwaps(t *testing.T) {
	n, cl := startServeNode(t)
	driveConst(t, cl, 0, []uint64{1, 2, 3}, 1.0)
	commitOverWire(t, cl, 0)

	h := n.ServeHandler()
	check := func(stage string) {
		t.Helper()
		if n.ServeHandler() != h {
			t.Fatalf("%s: the node's serve handler changed", stage)
		}
		if _, err := cl.PullBags(false, []uint32{0, 3}, []uint64{1, 2, 3}); err != nil {
			t.Fatalf("%s: bag read: %v", stage, err)
		}
	}
	check("before any swap")

	if err := n.Crash(); err != nil {
		t.Fatal(err)
	}
	if _, err := n.Restart(); err != nil {
		t.Fatal(err)
	}
	check("after restart")

	if err := cl.Rollback(0); err != nil {
		t.Fatal(err)
	}
	check("after rollback")
}
