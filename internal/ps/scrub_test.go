package ps

import (
	"errors"
	"testing"
	"time"

	"openembedding/internal/faultinject"
	"openembedding/internal/rpc"
)

// scrubNodeConfig is a pmem-oe node with flush-verification off, so
// injected media faults survive into the stored records and the scrubber
// (not the write path) is what finds them.
func scrubNodeConfig() NodeConfig {
	cfg := restartNodeConfig()
	cfg.Store.FlushVerifyDisabled = true
	return cfg
}

// startNodeWith starts a node and dials it. Rules, when given, arm the
// seeded media-fault model on the node's device before the client dials.
func startNodeWith(t *testing.T, cfg NodeConfig, rules ...faultinject.Rule) (*Node, *rpc.Client) {
	t.Helper()
	n, err := StartNode("127.0.0.1:0", cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { n.Close() })
	if len(rules) > 0 {
		n.dev.SetMediaFaults(faultinject.New(42, rules...), "m")
	}
	cl, err := rpc.DialOpts(n.Addr(), rpc.Options{
		MaxAttempts: 5,
		Timeout:     2 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cl.Close() })
	return n, cl
}

// TestScrubRPCRepairsTransparently: bit-rot in a stored record is found by
// the scrub RPC and corrected in place from the CRC32C syndrome — no state
// loss, so the epoch does not move.
func TestScrubRPCRepairsTransparently(t *testing.T) {
	n, cl := startNodeWith(t, scrubNodeConfig(),
		faultinject.Rule{Point: faultinject.PointPMemFlush, Kind: faultinject.KindBitRot, Nth: 1})
	keys := []uint64{1, 2, 3}
	driveConst(t, cl, 0, keys, 1.0) // first maintenance flush is the rotted one

	rep, err := cl.Scrub()
	if err != nil {
		t.Fatalf("scrub RPC: %v", err)
	}
	if rep.Scanned < 3 || rep.Corrupt != 1 || rep.Repaired != 1 || rep.Restored != 0 || rep.Fenced != 0 {
		t.Fatalf("scrub report %+v, want 1 corrupt repaired of >=3 scanned", rep)
	}
	if n.Epoch() != 0 {
		t.Fatalf("transparent repair moved the epoch to %d", n.Epoch())
	}
	rep2, err := cl.Scrub()
	if err != nil {
		t.Fatal(err)
	}
	if rep2.Corrupt != 0 {
		t.Fatalf("second scrub still finds corruption: %+v", rep2)
	}
	if _, err := cl.Pull(1, keys); err != nil {
		t.Fatalf("pull after repair: %v", err)
	}
}

// TestPullReturnsRemoteCorrupt pins the wire half of the serve-path
// guarantee: a Pull that must serve a corrupted PMem record fails with the
// typed rpc.ErrRemoteCorrupt — it is NOT retried into garbage — and a
// subsequent scrub heals the node, fencing the epoch because healing rolled
// state back.
func TestPullReturnsRemoteCorrupt(t *testing.T) {
	// Flush stream on this node: occurrences 1-3 persist keys 1-3's
	// init-valued records during batch 0's maintenance; the ten keys of
	// batch 1 overflow the 8-entry cache and evict keys 1-3, whose post-push
	// records are flush occurrences 4-6. Poison occurrence 4: key 1's only
	// current record, served straight from PMem on the next pull. (Poison,
	// not rot: a single rotted bit is now corrected in place, and this test
	// needs genuinely unrecoverable media.)
	n, cl := startNodeWith(t, scrubNodeConfig(),
		faultinject.Rule{Point: faultinject.PointPMemFlush, Kind: faultinject.KindPoison, Nth: 4})
	keys := []uint64{1, 2, 3}
	driveConst(t, cl, 0, keys, 1.0)
	fill := make([]uint64, 10)
	for i := range fill {
		fill[i] = 10 + uint64(i)
	}
	driveConst(t, cl, 1, fill, 1.0)

	_, err := cl.Pull(2, []uint64{1})
	if err == nil {
		t.Fatal("pull served a corrupt record over the wire")
	}
	if !errors.Is(err, rpc.ErrRemoteCorrupt) {
		t.Fatalf("want ErrRemoteCorrupt, got %v", err)
	}
	// The connection survives a corrupt-read error: healthy keys still serve.
	if _, err := cl.Pull(2, []uint64{2}); err != nil {
		t.Fatalf("pull of healthy key after corrupt error: %v", err)
	}

	// Scrub quarantines the poisoned slot and heals by restoring key 1's
	// retained older record — a state regression, so the node fences its
	// epoch.
	rep, err := cl.Scrub()
	if err != nil {
		t.Fatalf("scrub RPC: %v", err)
	}
	if rep.Corrupt != 1 || rep.Restored != 1 || rep.Quarantined != 1 {
		t.Fatalf("scrub report %+v, want 1 corrupt quarantined and restored", rep)
	}
	if n.Epoch() != 1 {
		t.Fatalf("state-losing scrub left epoch at %d, want 1", n.Epoch())
	}
	if _, err := cl.Pull(2, []uint64{1}); !errors.Is(err, rpc.ErrEpochFenced) {
		t.Fatalf("pull after state-losing scrub: %v, want ErrEpochFenced", err)
	}
	if _, err := cl.AdoptEpoch(); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Pull(2, []uint64{1}); err != nil {
		t.Fatalf("pull after adopting the fenced epoch: %v", err)
	}
}

// TestScrubUnsupportedEngine: nodes without an integrity scrubber reject the
// RPC cleanly instead of crashing or pretending.
func TestScrubUnsupportedEngine(t *testing.T) {
	cfg := restartNodeConfig()
	cfg.Engine = "dram-ps"
	cfg.Store.RetainCheckpoints = 1
	_, cl := startNodeWith(t, cfg)
	if _, err := cl.Scrub(); err == nil {
		t.Fatal("dram-ps node accepted the scrub RPC")
	}
}

// TestCrashDuringScrub races a scrub RPC against a node crash: whichever
// wins, nothing deadlocks or panics, the scrub call returns (a report or a
// typed error), and the node restarts cleanly afterwards.
func TestCrashDuringScrub(t *testing.T) {
	n, cl := startNodeWith(t, scrubNodeConfig(),
		faultinject.Rule{Point: faultinject.PointPMemFlush, Kind: faultinject.KindBitRot, Nth: 2})
	keys := []uint64{1, 2, 3, 4, 5}
	driveConst(t, cl, 0, keys, 1.0)
	commitOverWire(t, cl, 0)

	done := make(chan error, 1)
	go func() {
		_, err := cl.Scrub()
		done <- err
	}()
	if err := n.Crash(); err != nil {
		t.Fatal(err)
	}
	select {
	case <-done: // a report or a transport/closed error — both fine
	case <-time.After(10 * time.Second):
		t.Fatal("scrub deadlocked across a crash")
	}
	if _, err := n.Restart(); err != nil {
		t.Fatalf("restart after crash-during-scrub: %v", err)
	}
	if _, err := cl.AdoptEpoch(); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Pull(1, keys); err != nil {
		t.Fatalf("pull after restart: %v", err)
	}
}
