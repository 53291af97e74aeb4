package ps

import (
	"errors"
	"strings"
	"testing"
	"time"

	"openembedding/internal/optim"
	"openembedding/internal/psengine"
	"openembedding/internal/rpc"
	"openembedding/internal/simclock"
)

func restartNodeConfig() NodeConfig {
	return NodeConfig{
		Engine: "pmem-oe",
		Store: psengine.Config{
			Dim:               4,
			Optimizer:         optim.NewSGD(0.1),
			Capacity:          256,
			CacheEntries:      8,
			Meter:             simclock.NewMeter(),
			Shards:            1,
			RetainCheckpoints: 2,
		},
	}
}

func startRestartNode(t *testing.T) (*Node, *rpc.Client) {
	t.Helper()
	n, err := StartNode("127.0.0.1:0", restartNodeConfig())
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

// driveConst runs one synchronous batch over the wire with a constant
// gradient (reusing the package driveBatch helper).
func driveConst(t *testing.T, cl *rpc.Client, batch int64, keys []uint64, grad float32) []float32 {
	t.Helper()
	grads := make([]float32, len(keys)*4)
	for i := range grads {
		grads[i] = grad
	}
	return driveBatch(t, cl, batch, keys, grads)
}

// commitOverWire requests a checkpoint and polls completion; the polls
// drive the engine's checkpoint finalizer through the RPC progress hook.
func commitOverWire(t *testing.T, cl *rpc.Client, batch int64) {
	t.Helper()
	if err := cl.RequestCheckpoint(batch); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		done, err := cl.CompletedCheckpoint()
		if err != nil {
			t.Fatal(err)
		}
		if done >= batch {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("checkpoint %d never completed (at %d)", batch, done)
		}
	}
}

// TestNodeCrashRestartEpochFence exercises the whole node-recovery story:
// crash drops the server and volatile state, restart recovers from the
// surviving image at the same address with a bumped epoch, the stale
// client is fenced until AdoptEpoch, and the recovered weights are the
// checkpointed ones.
func TestNodeCrashRestartEpochFence(t *testing.T) {
	n, cl := startRestartNode(t)
	keys := []uint64{1, 2, 3}

	w0 := driveConst(t, cl, 0, keys, 1.0) // w1 = w0 - 0.1
	commitOverWire(t, cl, 0)
	driveConst(t, cl, 1, keys, 1.0) // w2 = w0 - 0.2, NOT checkpointed

	if err := n.Crash(); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Pull(2, keys); err == nil {
		t.Fatal("pull succeeded against a crashed node")
	}

	ckpt, err := n.Restart()
	if err != nil {
		t.Fatal(err)
	}
	if ckpt != 0 {
		t.Fatalf("restarted at checkpoint %d, want 0", ckpt)
	}
	if n.Epoch() != 1 {
		t.Fatalf("epoch after restart = %d, want 1", n.Epoch())
	}

	// The redialed client learns the new epoch and is fenced.
	_, err = cl.Pull(2, keys)
	if !errors.Is(err, rpc.ErrEpochFenced) {
		t.Fatalf("stale pull after restart: %v, want ErrEpochFenced", err)
	}
	if _, err := cl.AdoptEpoch(); err != nil {
		t.Fatal(err)
	}
	w, err := cl.Pull(2, keys)
	if err != nil {
		t.Fatalf("pull after AdoptEpoch: %v", err)
	}
	// Recovered state is the checkpoint at batch 0: one SGD step applied.
	for i := range w {
		want := w0[i] - 0.1
		if d := w[i] - want; d > 1e-6 || d < -1e-6 {
			t.Fatalf("recovered w[%d] = %v, want %v (checkpoint state)", i, w[i], want)
		}
	}
}

// TestNodeRollbackRPC rolls a live node back to the retained previous
// checkpoint over the wire and verifies the epoch fences, the state
// rewinds, and the address never changes.
func TestNodeRollbackRPC(t *testing.T) {
	n, cl := startRestartNode(t)
	keys := []uint64{7, 8}

	w0 := driveConst(t, cl, 0, keys, 1.0)
	commitOverWire(t, cl, 0) // cur=0
	driveConst(t, cl, 1, keys, 1.0)
	commitOverWire(t, cl, 1) // cur=1, prev=0

	if err := cl.Rollback(0); err != nil {
		t.Fatalf("rollback RPC: %v", err)
	}
	if n.Epoch() != 1 {
		t.Fatalf("epoch after rollback = %d, want 1", n.Epoch())
	}
	// The rolling-back client is fenced like everyone else until it
	// re-adopts.
	if _, err := cl.Pull(1, keys); !errors.Is(err, rpc.ErrEpochFenced) {
		t.Fatalf("pull after rollback: %v, want ErrEpochFenced", err)
	}
	if _, err := cl.AdoptEpoch(); err != nil {
		t.Fatal(err)
	}
	w, err := cl.Pull(1, keys)
	if err != nil {
		t.Fatal(err)
	}
	for i := range w {
		want := w0[i] - 0.1 // state as of checkpoint 0
		if d := w[i] - want; d > 1e-6 || d < -1e-6 {
			t.Fatalf("rolled-back w[%d] = %v, want %v", i, w[i], want)
		}
	}
	// Idempotent: rolling back again to the same checkpoint succeeds.
	if err := cl.Rollback(0); err != nil {
		t.Fatalf("repeated rollback: %v", err)
	}
	if _, err := cl.AdoptEpoch(); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Pull(1, keys); err != nil {
		t.Fatalf("pull after repeated rollback: %v", err)
	}
}

// TestCrashUnsupportedEngines: only pmem-oe nodes can crash-recover; the
// baselines reject cleanly.
func TestCrashUnsupportedEngines(t *testing.T) {
	cfg := restartNodeConfig()
	cfg.Engine = "dram-ps"
	cfg.Store.RetainCheckpoints = 1
	n, err := StartNode("127.0.0.1:0", cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()
	if err := n.Crash(); err == nil {
		t.Fatal("dram-ps node accepted Crash")
	}
	if _, err := n.Restart(); err == nil {
		t.Fatal("un-crashed node accepted Restart")
	}
}

// TestNodeRollbackDefaultRetention pins the production node against the
// recovery protocol: a node whose Store leaves RetainCheckpoints at its zero
// value — what oeps, oectl and the public Server start — retains two
// checkpoints, so the Rollback(previous) that cluster.Recover sends after a
// mid-gate crash finds its target and serves that checkpoint's rows. An
// explicit 1 is still honoured: that node keeps only the latest.
func TestNodeRollbackDefaultRetention(t *testing.T) {
	start := func(retain int) *rpc.Client {
		cfg := restartNodeConfig()
		cfg.Store.RetainCheckpoints = retain
		_, cl := startNodeWith(t, cfg)
		return cl
	}
	keys := []uint64{7, 8}

	cl := start(0)
	w0 := driveConst(t, cl, 0, keys, 1.0)
	commitOverWire(t, cl, 0)
	driveConst(t, cl, 1, keys, 1.0)
	commitOverWire(t, cl, 1)
	if err := cl.Rollback(0); err != nil {
		t.Fatalf("rollback to the first of two gated checkpoints: %v", err)
	}
	if _, err := cl.AdoptEpoch(); err != nil {
		t.Fatal(err)
	}
	w, err := cl.Pull(1, keys)
	if err != nil {
		t.Fatal(err)
	}
	for i := range w {
		want := w0[i] - 0.1 // one SGD step: the state as of checkpoint 0
		if d := w[i] - want; d > 1e-6 || d < -1e-6 {
			t.Fatalf("rolled-back w[%d] = %v, want %v", i, w[i], want)
		}
	}

	one := start(1)
	driveConst(t, one, 0, keys, 1.0)
	commitOverWire(t, one, 0)
	driveConst(t, one, 1, keys, 1.0)
	commitOverWire(t, one, 1)
	if err := one.Rollback(0); err == nil || !strings.Contains(err.Error(), "not retained") {
		t.Fatalf("rollback past an explicit RetainCheckpoints 1: %v, want a not-retained refusal", err)
	}
}
