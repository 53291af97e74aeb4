package openembedding

import (
	"path/filepath"
	"testing"
)

func testServer(t *testing.T, cfg Config) *Server {
	t.Helper()
	s, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

func driveBatch(t *testing.T, s *Server, batch int64, keys []uint64, grads []float32) []float32 {
	t.Helper()
	dst := make([]float32, len(keys)*s.Dim())
	if err := s.Pull(batch, keys, dst); err != nil {
		t.Fatal(err)
	}
	s.EndPullPhase(batch)
	if grads != nil {
		if err := s.Push(batch, keys, grads); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.EndBatch(batch); err != nil {
		t.Fatal(err)
	}
	return dst
}

func TestOpenDefaults(t *testing.T) {
	s := testServer(t, Config{Dim: 8, Capacity: 1024})
	if s.Dim() != 8 || s.RecoveredBatch != -1 {
		t.Fatalf("dim=%d recovered=%d", s.Dim(), s.RecoveredBatch)
	}
	keys := []uint64{1, 2, 3}
	grads := make([]float32, len(keys)*8)
	for i := range grads {
		grads[i] = 1
	}
	before := driveBatch(t, s, 0, keys, grads)
	after := driveBatch(t, s, 1, keys, nil)
	for i := range after {
		if after[i] == before[i] {
			t.Fatal("push had no effect")
		}
	}
	if st := s.Stats(); st.Entries != 3 {
		t.Fatalf("entries = %d", st.Entries)
	}
}

func TestOpenRejectsBadOptimizer(t *testing.T) {
	if _, err := Open(Config{Optimizer: "adamw"}); err == nil {
		t.Fatal("unknown optimizer accepted")
	}
}

func TestCrashRecoverInPlace(t *testing.T) {
	s := testServer(t, Config{Dim: 4, Capacity: 512, CacheEntries: 8, Optimizer: "sgd", LearningRate: 0.1})
	keys := []uint64{10, 20}
	grads := make([]float32, len(keys)*4)
	for i := range grads {
		grads[i] = 1
	}
	driveBatch(t, s, 0, keys, grads)
	driveBatch(t, s, 1, keys, grads)
	if err := s.RequestCheckpoint(1); err != nil {
		t.Fatal(err)
	}
	atCkpt := driveBatch(t, s, 2, keys, grads) // pulls show post-batch-1 state
	driveBatch(t, s, 3, keys, grads)
	if s.CompletedCheckpoint() != 1 {
		t.Fatalf("checkpoint not completed: %d", s.CompletedCheckpoint())
	}

	s.SimulateCrash()
	ckpt, err := s.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if ckpt != 1 {
		t.Fatalf("recovered to %d, want 1", ckpt)
	}
	got := driveBatch(t, s, 2, keys, nil)
	for i := range got {
		if got[i] != atCkpt[i] {
			t.Fatalf("recovered[%d] = %v, want checkpoint state %v", i, got[i], atCkpt[i])
		}
	}
}

func TestDurableAcrossReopen(t *testing.T) {
	path := filepath.Join(t.TempDir(), "pmem.img")
	cfg := Config{Dim: 4, Capacity: 256, CacheEntries: 16, PMemPath: path, Optimizer: "sgd", LearningRate: 0.1}

	s, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	keys := []uint64{5}
	grads := []float32{1, 1, 1, 1}
	driveBatch(t, s, 0, keys, grads)
	want := driveBatch(t, s, 1, keys, nil)
	if err := s.RequestCheckpoint(1); err != nil {
		t.Fatal(err)
	}
	driveBatch(t, s, 2, keys, nil) // lets the checkpoint complete
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	re, err := Open(cfg) // same path: recovery
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if re.RecoveredBatch != 1 {
		t.Fatalf("reopened at checkpoint %d, want 1", re.RecoveredBatch)
	}
	got := driveBatch(t, re, 2, keys, nil)
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("reopened[%d] = %v, want %v", i, got[i], want[i])
		}
	}
}

func TestServeAndDial(t *testing.T) {
	s1 := testServer(t, Config{Dim: 4, Capacity: 512})
	s2 := testServer(t, Config{Dim: 4, Capacity: 512})
	n1, err := s1.ListenAndServe("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer n1.Close()
	n2, err := s2.ListenAndServe("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer n2.Close()

	cl, err := Dial(4, n1.Addr(), n2.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	keys := []uint64{1, 2, 3, 4, 5, 6, 7, 8}
	dst := make([]float32, len(keys)*4)
	if err := cl.Pull(0, keys, dst); err != nil {
		t.Fatal(err)
	}
	if err := cl.EndPullPhase(0); err != nil {
		t.Fatal(err)
	}
	if err := cl.Push(0, keys, make([]float32, len(keys)*4)); err != nil {
		t.Fatal(err)
	}
	if err := cl.EndBatch(0); err != nil {
		t.Fatal(err)
	}
	st, err := cl.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.Entries != int64(len(keys)) {
		t.Fatalf("cluster entries = %d", st.Entries)
	}
	// Both shards got some keys.
	if s1.Stats().Entries == 0 || s2.Stats().Entries == 0 {
		t.Fatalf("partitioning sent everything to one shard: %d/%d",
			s1.Stats().Entries, s2.Stats().Entries)
	}
}

func TestSaveWithoutPath(t *testing.T) {
	s := testServer(t, Config{Dim: 2, Capacity: 16})
	if err := s.Save(); err == nil {
		t.Fatal("Save without PMemPath accepted")
	}
}

// TestServedNodeRecoversCluster pins the public TCP node against the
// recovery protocol: two Open+ListenAndServe shards train through a Client
// with two committed checkpoints; the client Recovers to the older one and
// replays; one shard then loses power, is Recovered in place, and the client
// Recovers to the cluster's commit and replays again. The run ends
// bit-identical to one that never failed, and a Scrub of the shards passes.
func TestServedNodeRecoversCluster(t *testing.T) {
	const dim, batches, crashAfter = 4, 9, 6
	ckpts := map[int64]bool{2: true, 5: true}
	keys := make([]uint64, 24)
	for i := range keys {
		keys[i] = uint64(i * 7)
	}
	grads := func(b int64) []float32 {
		g := make([]float32, len(keys)*dim)
		for i := range g {
			g[i] = float32(b+1) * 0.25 * float32(i%5+1)
		}
		return g
	}

	type cluster struct {
		shards []*Server
		cl     *Client
		dst    []float32
	}
	start := func() *cluster {
		c := &cluster{dst: make([]float32, len(keys)*dim)}
		var addrs []string
		for i := 0; i < 2; i++ {
			s := testServer(t, Config{Dim: dim, Capacity: 512, CacheEntries: 8, Optimizer: "sgd", LearningRate: 0.1})
			n, err := s.ListenAndServe("127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			c.shards = append(c.shards, s)
			addrs = append(addrs, n.Addr())
		}
		cl, err := Dial(dim, addrs...)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { cl.Close() })
		c.cl = cl
		return c
	}
	step := func(c *cluster, b int64) error {
		if err := c.cl.Pull(b, keys, c.dst); err != nil {
			return err
		}
		if err := c.cl.EndPullPhase(b); err != nil {
			return err
		}
		if err := c.cl.Push(b, keys, grads(b)); err != nil {
			return err
		}
		return c.cl.EndBatch(b)
	}
	// run trains batches [from, to), committing each checkpoint batch
	// cluster-wide before moving on.
	run := func(c *cluster, from, to int64) {
		t.Helper()
		for b := from; b < to; b++ {
			if err := step(c, b); err != nil {
				t.Fatalf("batch %d: %v", b, err)
			}
			if !ckpts[b] {
				continue
			}
			if err := c.cl.RequestCheckpoint(b); err != nil {
				t.Fatal(err)
			}
			if done, err := c.cl.CompletedCheckpoint(); err != nil {
				t.Fatal(err)
			} else if done < b {
				t.Fatalf("checkpoint %d never completed (at %d)", b, done)
			}
		}
	}
	final := func(c *cluster) []float32 {
		t.Helper()
		if err := c.cl.Pull(batches, keys, c.dst); err != nil {
			t.Fatalf("final pull: %v", err)
		}
		return append([]float32(nil), c.dst...)
	}
	same := func(stage string, got, want []float32) {
		t.Helper()
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%s: weight [%d] = %v, want %v (bit-identical to the uncrashed run)", stage, i, got[i], want[i])
			}
		}
	}

	uncrashed := start()
	run(uncrashed, 0, batches)
	want := final(uncrashed)

	c := start()
	run(c, 0, crashAfter+1) // through both checkpoints and one batch past

	// A worker-side failure: every shard is up, the trainer goes back to
	// the checkpoint before the latest — which both shards still retain —
	// and replays.
	if err := c.cl.Recover(2); err != nil {
		t.Fatalf("client Recover(2), the retained previous checkpoint: %v", err)
	}
	run(c, 3, crashAfter+1)

	// A shard-side failure: power loss, restart in place, then the same
	// protocol from the cluster's commit.
	down := c.shards[1]
	down.SimulateCrash()
	if err := down.Pull(crashAfter+1, keys[:1], make([]float32, dim)); err == nil {
		t.Fatal("a crashed server answered a pull")
	}
	if err := step(c, crashAfter+1); err == nil || !c.cl.Recoverable(err) {
		t.Fatalf("batch against a crashed shard: %v, want a recoverable error", err)
	}
	if ckpt, err := down.Recover(); err != nil || ckpt != 5 {
		t.Fatalf("shard recovered to %d, %v; want checkpoint 5", ckpt, err)
	}
	if err := step(c, crashAfter+1); err == nil || !c.cl.Recoverable(err) {
		t.Fatalf("batch against the restarted shard: %v, want the epoch fence", err)
	}
	commit, err := c.cl.CompletedCheckpoint()
	if err != nil || commit != 5 {
		t.Fatalf("cluster commit = %d, %v; want 5", commit, err)
	}
	if err := c.cl.Recover(commit); err != nil {
		t.Fatalf("client Recover(%d): %v", commit, err)
	}
	run(c, commit+1, batches)
	same("after both recoveries and replays", final(c), want)

	rep, err := c.cl.Scrub()
	if err != nil {
		t.Fatalf("client Scrub: %v", err)
	}
	if rep.Scanned == 0 || rep.Corrupt != 0 {
		t.Fatalf("scrub of healthy shards: %+v", rep)
	}
}
