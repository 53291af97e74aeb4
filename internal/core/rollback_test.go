package core

import (
	"math/rand"
	"testing"

	"openembedding/internal/optim"
	"openembedding/internal/psengine"
	"openembedding/internal/simclock"
)

func rollbackTestConfig() psengine.Config {
	return psengine.Config{
		Dim:               4,
		Optimizer:         optim.NewAdaGrad(0.1), // stateful: the hard case
		Capacity:          256,
		CacheEntries:      6, // tiny cache: constant PMem churn
		Meter:             simclock.NewMeter(),
		Shards:            1,
		RetainCheckpoints: 2,
	}
}

type rollbackStep struct {
	keys  []uint64
	grads []float32
}

func rollbackScript(n int) []rollbackStep {
	rng := rand.New(rand.NewSource(321))
	var script []rollbackStep
	for b := 0; b < n; b++ {
		cnt := 2 + rng.Intn(4)
		seen := map[uint64]bool{}
		keys := make([]uint64, 0, cnt)
		for len(keys) < cnt {
			k := uint64(rng.Intn(40))
			if !seen[k] {
				seen[k] = true
				keys = append(keys, k)
			}
		}
		grads := make([]float32, len(keys)*4)
		for i := range grads {
			grads[i] = float32(rng.NormFloat64())
		}
		script = append(script, rollbackStep{keys, grads})
	}
	return script
}

// commitCheckpoint requests a checkpoint for the last sealed batch and
// waits for it, as the trainer's commit read does over RPC.
func commitCheckpoint(t *testing.T, e *Engine, batch int64) {
	t.Helper()
	if err := e.RequestCheckpoint(batch); err != nil {
		t.Fatal(err)
	}
	if err := e.WaitCheckpoints(); err != nil {
		t.Fatal(err)
	}
	if got := e.CompletedCheckpoint(); got < batch {
		t.Fatalf("checkpoint %d never completed (at %d)", batch, got)
	}
}

func pullAll(t *testing.T, e *Engine, dim int) map[uint64][]float32 {
	t.Helper()
	out := make(map[uint64][]float32)
	for k := uint64(0); k < 40; k++ {
		dst := make([]float32, dim)
		if err := e.Pull(100000, []uint64{k}, dst); err == nil {
			out[k] = dst
		}
	}
	return out
}

func compareStates(t *testing.T, label string, want, got map[uint64][]float32) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("%s: key sets differ: %d vs %d", label, len(want), len(got))
	}
	for k, w := range want {
		g, ok := got[k]
		if !ok {
			t.Fatalf("%s: key %d missing", label, k)
		}
		for d := range w {
			if w[d] != g[d] {
				t.Fatalf("%s: key %d[%d] = %v, want %v (bit-exact)", label, k, d, g[d], w[d])
			}
		}
	}
}

// TestRollbackToPrevEquivalence is the node-local half of coordinated
// cluster replay: an engine retaining two checkpoints is crashed and rolled
// back to the OLDER one, and its state must be bit-identical to a run that
// simply stopped there. Replaying the lost batches on the rolled-back
// engine must then land bit-identical to the never-crashed run.
func TestRollbackToPrevEquivalence(t *testing.T) {
	cfg := rollbackTestConfig()
	script := rollbackScript(20)
	const c1, c2 = 8, 14

	// Reference A: the full run, checkpoints committed at c1 and c2.
	engA := newTestEngine(t, cfg)
	for b, s := range script {
		runBatch(t, engA, int64(b), s.keys, s.grads)
		if b == c1 || b == c2 {
			commitCheckpoint(t, engA, int64(b))
		}
	}
	fullState := pullAll(t, engA, cfg.Dim)

	// Reference B: a run that stops at c1.
	engB := newTestEngine(t, cfg)
	for b := 0; b <= c1; b++ {
		runBatch(t, engB, int64(b), script[b].keys, script[b].grads)
	}
	commitCheckpoint(t, engB, c1)
	devB := engB.Arena().Device()
	engB.Close()
	devB.Crash()
	recB, ckpt, err := Recover(cfg, devB)
	if err != nil {
		t.Fatal(err)
	}
	defer recB.Close()
	if ckpt != c1 {
		t.Fatalf("reference recovered to %d, want %d", ckpt, c1)
	}
	refState := pullAll(t, recB, cfg.Dim)

	// Run C: full run, crash, roll back to the RETAINED PREVIOUS
	// checkpoint c1 (skipping over c2), then replay to the end.
	engC := newTestEngine(t, cfg)
	for b, s := range script {
		runBatch(t, engC, int64(b), s.keys, s.grads)
		if b == c1 || b == c2 {
			commitCheckpoint(t, engC, int64(b))
		}
	}
	devC := engC.Arena().Device()
	// Both durable IDs must be in place before the crash.
	arC := engC.Arena()
	if cur, _ := arC.CheckpointedBatch(); cur != c2 {
		t.Fatalf("durable checkpoint = %d, want %d", cur, c2)
	}
	if prev, _ := arC.PrevCheckpointedBatch(); prev != c1 {
		t.Fatalf("durable prev checkpoint = %d, want %d", prev, c1)
	}
	engC.Close()
	devC.Crash()
	recC, got, err := RecoverTo(cfg, devC, c1)
	if err != nil {
		t.Fatal(err)
	}
	defer recC.Close()
	if got != c1 {
		t.Fatalf("rolled back to %d, want %d", got, c1)
	}
	if recC.CompletedCheckpoint() != c1 || recC.PrevCompletedCheckpoint() != -1 {
		t.Fatalf("rolled-back engine at (%d, prev %d), want (%d, -1)",
			recC.CompletedCheckpoint(), recC.PrevCompletedCheckpoint(), c1)
	}
	// The rollback is durable: the image now reads as a c1 image.
	if cur, _ := arC.CheckpointedBatch(); cur != c1 {
		t.Fatalf("durable checkpoint after rollback = %d, want %d", cur, c1)
	}
	compareStates(t, "rollback-to-prev", refState, pullAll(t, recC, cfg.Dim))

	// Replay the lost batches: bit-identical to the never-crashed run.
	for b := c1 + 1; b < len(script); b++ {
		runBatch(t, recC, int64(b), script[b].keys, script[b].grads)
		if b == c2 {
			commitCheckpoint(t, recC, int64(b))
		}
	}
	compareStates(t, "replay-after-rollback", fullState, pullAll(t, recC, cfg.Dim))
}

// TestRecoverToCurIsRecover: rolling back to the latest checkpoint is
// exactly Recover — the property that makes the rollback RPC idempotent.
func TestRecoverToCurIsRecover(t *testing.T) {
	cfg := rollbackTestConfig()
	script := rollbackScript(12)
	const c1, c2 = 4, 9
	eng := newTestEngine(t, cfg)
	for b, s := range script {
		runBatch(t, eng, int64(b), s.keys, s.grads)
		if b == c1 || b == c2 {
			commitCheckpoint(t, eng, int64(b))
		}
	}
	dev := eng.Arena().Device()
	eng.Close()
	dev.Crash()
	rec, got, err := RecoverTo(cfg, dev, c2)
	if err != nil {
		t.Fatal(err)
	}
	defer rec.Close()
	if got != c2 {
		t.Fatalf("recovered to %d, want %d", got, c2)
	}
	// Recovering at cur keeps prev retained: a later rollback to c1 must
	// still be possible.
	if rec.PrevCompletedCheckpoint() != c1 {
		t.Fatalf("prev after recover-at-cur = %d, want %d", rec.PrevCompletedCheckpoint(), c1)
	}
	rec.Close()
	rec2, got2, err := RecoverTo(cfg, dev, c1)
	if err != nil {
		t.Fatalf("second rollback to prev after recover-at-cur: %v", err)
	}
	defer rec2.Close()
	if got2 != c1 {
		t.Fatalf("second rollback landed at %d, want %d", got2, c1)
	}
}

// TestRecoverToValidatesTarget: an unretained target is rejected rather
// than silently recovering to garbage.
func TestRecoverToValidatesTarget(t *testing.T) {
	cfg := rollbackTestConfig()
	script := rollbackScript(8)
	const c1, c2 = 3, 6
	eng := newTestEngine(t, cfg)
	for b, s := range script {
		runBatch(t, eng, int64(b), s.keys, s.grads)
		if b == c1 || b == c2 {
			commitCheckpoint(t, eng, int64(b))
		}
	}
	dev := eng.Arena().Device()
	eng.Close()
	dev.Crash()
	for _, target := range []int64{0, 1, 5, 7, -1} {
		if _, _, err := RecoverTo(cfg, dev, target); err == nil {
			t.Fatalf("RecoverTo(%d) accepted an unretained target", target)
		}
	}
}

// TestRetainOneNeverPersistsPrev: the default RetainCheckpoints(1) engine
// behaves exactly as before this feature — the durable prev ID stays -1 and
// rollback below the latest checkpoint is impossible.
func TestRetainOneNeverPersistsPrev(t *testing.T) {
	cfg := rollbackTestConfig()
	cfg.RetainCheckpoints = 1
	script := rollbackScript(12)
	const c1, c2 = 4, 9
	eng := newTestEngine(t, cfg)
	for b, s := range script {
		runBatch(t, eng, int64(b), s.keys, s.grads)
		if b == c1 || b == c2 {
			commitCheckpoint(t, eng, int64(b))
		}
	}
	if prev, _ := eng.Arena().PrevCheckpointedBatch(); prev != -1 {
		t.Fatalf("durable prev = %d with RetainCheckpoints=1, want -1", prev)
	}
	dev := eng.Arena().Device()
	eng.Close()
	dev.Crash()
	if _, _, err := RecoverTo(cfg, dev, c1); err == nil {
		t.Fatal("rollback below the latest checkpoint accepted with RetainCheckpoints=1")
	}
	rec, got, err := RecoverTo(cfg, dev, c2)
	if err != nil {
		t.Fatal(err)
	}
	defer rec.Close()
	if got != c2 {
		t.Fatalf("recovered to %d, want %d", got, c2)
	}
}
