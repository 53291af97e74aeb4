package cluster

import (
	"errors"
	"os"
	"sort"
	"strconv"
	"testing"
	"time"

	"openembedding/internal/obs"
	"openembedding/internal/ps"
	"openembedding/internal/psengine"
	"openembedding/internal/rpc"
)

// The migration chaos soak (DESIGN.md §15 crash matrix): a live 3-node
// cluster trains, checkpoints, and then grows to 4 nodes while a scripted
// crash kills one migration role mid-copy — the source node, the target
// (joining) node, or the coordinator itself. Whatever happens, the
// standard recovery sequence (Recover to the cluster commit, re-run the
// join from scratch) must converge to a final state bit-identical to the
// fault-free migration from the same seed. The pre-seal verification pass
// is what makes the target-crash case safe: a restarted fresh node sheds
// its un-checkpointed adopted entries, and the coordinator must notice
// instead of flipping ownership over a hole.

// migChaosSeed mirrors the train chaos soak: fixed default, OE_CHAOS_SEED
// sweeps it in CI.
func migChaosSeed(t *testing.T) uint64 {
	t.Helper()
	if s := os.Getenv("OE_CHAOS_SEED"); s != "" {
		v, err := strconv.ParseUint(s, 10, 64)
		if err != nil {
			t.Fatalf("OE_CHAOS_SEED=%q: %v", s, err)
		}
		return v
	}
	return 1
}

const (
	migChaosNodes = 3
	migChaosKeys  = 48
	migChaosDim   = 4
)

// migChaosGrad derives a deterministic per-(batch, slot) gradient from the
// seed: the same seed trains the same floats in every scenario.
func migChaosGrad(seed uint64, batch int64, i int) float32 {
	h := rpc.KeyHash(seed ^ uint64(batch)*0x9e3779b97f4a7c15 ^ uint64(i))
	return float32(h%1000)/1000 - 0.5
}

type migChaosHarness struct {
	t      *testing.T
	seed   uint64
	reg    *obs.Registry
	nodes  []*ps.Node
	addrs  []string
	joiner *ps.Node
	cl     *Client
	keys   []uint64
}

func (h *migChaosHarness) dial() *Client {
	h.t.Helper()
	cl, err := DialOpts(migChaosDim, h.addrs, Options{
		RPC: rpc.Options{
			Retry: rpc.RetryPolicy{
				MaxAttempts: 6,
				Backoff:     time.Millisecond,
				MaxBackoff:  20 * time.Millisecond,
				Seed:        h.seed,
			},
			Timeout: 2 * time.Second,
		},
		Obs: h.reg,
	})
	if err != nil {
		h.t.Fatal(err)
	}
	h.t.Cleanup(func() { cl.Close() })
	return cl
}

func (h *migChaosHarness) train(b int64) {
	h.t.Helper()
	dst := make([]float32, len(h.keys)*migChaosDim)
	if err := h.cl.Pull(b, h.keys, dst); err != nil {
		h.t.Fatalf("pull %d: %v", b, err)
	}
	if err := h.cl.EndPullPhase(b); err != nil {
		h.t.Fatal(err)
	}
	grads := make([]float32, len(h.keys)*migChaosDim)
	for i := range grads {
		grads[i] = migChaosGrad(h.seed, b, i)
	}
	if err := h.cl.Push(b, h.keys, grads); err != nil {
		h.t.Fatalf("push %d: %v", b, err)
	}
	if err := h.cl.EndBatch(b); err != nil {
		h.t.Fatal(err)
	}
}

func (h *migChaosHarness) checkpoint(b int64) {
	h.t.Helper()
	if err := h.cl.RequestCheckpoint(b); err != nil {
		h.t.Fatal(err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		v, err := h.cl.CompletedCheckpoint()
		if err != nil {
			h.t.Fatal(err)
		}
		if v >= b {
			return
		}
		if time.Now().After(deadline) {
			h.t.Fatalf("checkpoint %d never committed", b)
		}
		time.Sleep(time.Millisecond)
	}
}

// recoverAndRejoin is the operator playbook after a failed migration:
// Recover the old membership to its commit, then re-run the join from
// scratch (idempotent: hygiene drop, full copy, verify, seal, flip).
func (h *migChaosHarness) recoverAndRejoin(commitBatch int64) {
	h.t.Helper()
	if err := h.cl.Recover(commitBatch); err != nil {
		h.t.Fatalf("recover: %v", err)
	}
	if err := h.cl.Join(commitBatch, h.joiner.Addr()); err != nil {
		h.t.Fatalf("re-join after recovery: %v", err)
	}
}

// runMigrationScenario trains 3 batches, checkpoints, then joins a 4th
// node with the named role killed mid-copy ("" = fault-free), recovers as
// needed, trains one more batch through the grown cluster, and reads out
// the full embedding state deterministically.
func runMigrationScenario(t *testing.T, seed uint64, role string) []float32 {
	t.Helper()
	h := &migChaosHarness{t: t, seed: seed, reg: obs.NewRegistry()}
	store := func() psengine.Config {
		s := storeConfig()
		s.RetainCheckpoints = 2
		return s
	}
	for i := 0; i < migChaosNodes; i++ {
		n, err := ps.StartNode("127.0.0.1:0", ps.NodeConfig{
			Engine: "pmem-oe", Serve: true, Store: store(),
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { n.Close() })
		h.nodes = append(h.nodes, n)
		h.addrs = append(h.addrs, n.Addr())
	}
	h.keys = testKeys(migChaosKeys)
	h.cl = h.dial()

	for b := int64(0); b < 3; b++ {
		h.train(b)
	}
	h.checkpoint(2)

	joiner, err := ps.StartNode("127.0.0.1:0", ps.NodeConfig{
		Engine: "pmem-oe", Serve: true, Store: store(),
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { joiner.Close() })
	h.joiner = joiner

	const sentinel = "migration-coordinator-crash"
	crash := func(n *ps.Node) {
		t.Helper()
		if err := n.Crash(); err != nil {
			t.Fatal(err)
		}
		if _, err := n.Restart(); err != nil {
			t.Fatal(err)
		}
	}
	switch role {
	case "target":
		h.cl.migrateHook = func(round int, cur int64) int64 {
			if round == 0 {
				crash(h.joiner)
			}
			return cur
		}
	case "source":
		// Node index derived from the seed: every seed kills a
		// (deterministically chosen) old node mid-copy; with 64 vnodes
		// each, every old node sources some arc of the join.
		victim := int(rpc.KeyHash(seed) % migChaosNodes)
		h.cl.migrateHook = func(round int, cur int64) int64 {
			if round == 0 {
				crash(h.nodes[victim])
			}
			return cur
		}
	case "coordinator":
		h.cl.migrateHook = func(round int, cur int64) int64 {
			if round == 0 {
				panic(sentinel)
			}
			return cur
		}
	case "":
	default:
		t.Fatalf("unknown role %q", role)
	}

	joinErr := func() (err error) {
		defer func() {
			if r := recover(); r != nil {
				if r != sentinel {
					panic(r)
				}
				// The coordinator "died": a fresh one re-derives the plan
				// from the original membership and takes over.
				h.cl.migrateHook = nil
				h.cl = h.dial()
				err = errors.New("coordinator crashed mid-migration")
			}
		}()
		return h.cl.Join(2, h.joiner.Addr())
	}()
	h.cl.migrateHook = nil
	if joinErr != nil {
		if role == "" {
			t.Fatalf("fault-free join failed: %v", joinErr)
		}
		t.Logf("role=%s: join failed as injected (%v); recovering", role, joinErr)
		h.recoverAndRejoin(2)
	} else if role != "" {
		// Transparent RPC retries (plus the durable, idempotent adopt
		// path) healed the crash inside one join attempt — also a pass.
		t.Logf("role=%s: join self-healed through retries", role)
	}
	if got := h.cl.Nodes(); got != migChaosNodes+1 {
		t.Fatalf("role=%s: nodes = %d, want %d", role, got, migChaosNodes+1)
	}

	h.train(3)

	keys := append([]uint64(nil), h.keys...)
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	out := make([]float32, len(keys)*migChaosDim)
	if err := h.cl.Pull(4, keys, out); err != nil {
		t.Fatalf("role=%s: final readout: %v", role, err)
	}
	return out
}

// TestMigrationChaosRoleKills is the migration crash-matrix soak: for the
// printed seed, killing the source, the target, or the coordinator
// mid-migration must all converge — after standard recovery — to exactly
// the fault-free migration's final embedding state, bit for bit.
func TestMigrationChaosRoleKills(t *testing.T) {
	seed := migChaosSeed(t)
	t.Logf("migration chaos seed = %d (set OE_CHAOS_SEED to override)", seed)

	ref := runMigrationScenario(t, seed, "")
	for _, role := range []string{"target", "source", "coordinator"} {
		got := runMigrationScenario(t, seed, role)
		if len(got) != len(ref) {
			t.Fatalf("role=%s: readout length %d vs %d", role, len(got), len(ref))
		}
		for i := range ref {
			if got[i] != ref[i] {
				t.Fatalf("role=%s: state[%d] = %v, want %v (bit-identical to fault-free migration)",
					role, i, got[i], ref[i])
			}
		}
		t.Logf("role=%s: converged bit-identical to fault-free migration", role)
	}
}
