package train

import (
	"fmt"
	"testing"

	"openembedding/internal/faultinject"
	"openembedding/internal/psengine"
)

// The scrub soak is the media-integrity counterpart of the chaos soak:
// instead of healing faults at the write site (flush verification), it lets
// seeded bit-rot land silently in the stored records and requires the
// scrubs an operator runs (Client.Scrub, oectl scrub) to find and repair
// every hit. The cache is sized to hold every entry, so each corrupt record
// still has an intact DRAM copy and every heal is a transparent in-place
// repair — no state regression, no epoch movement — and the final model
// state must be bit-identical to a fault-free run.

// checkLosslessScrub fails the test unless rep healed every corrupt record
// it found in place.
func checkLosslessScrub(t *testing.T, what string, rep psengine.ScrubReport) {
	t.Helper()
	if rep.Restored != 0 || rep.Fenced != 0 || rep.Quarantined != 0 {
		t.Fatalf("%s lost state with every entry DRAM-resident: %+v", what, rep)
	}
	if rep.Corrupt != rep.Repaired {
		t.Fatalf("%s left corruption unrepaired: %+v", what, rep)
	}
}

// runScrubCluster runs the full training job against a fresh 3-node
// pmem-oe cluster with flush verification OFF; with rot enabled it arms
// seeded bit-rot on the PMem flush stream and scrubs the cluster before
// every chaosCkptEvery-th batch. After training (rot runs only) it drives
// explicit scrubs until the cluster verifies clean. Every heal must have
// been a transparent repair. It returns the run's result and the sums of
// the in-training and the final scrub reports.
func runScrubCluster(t *testing.T, seed uint64, rot bool) (_ chaosResult, during, final psengine.ScrubReport) {
	t.Helper()
	var inj *faultinject.Injector
	if rot {
		inj = faultinject.New(seed,
			faultinject.Rule{Point: faultinject.PointPMemFlush, Kind: faultinject.KindBitRot, Prob: 0.01})
	}
	sc := startSoakCluster(t, "tcp", inj, func(store *psengine.Config) {
		// Every entry stays DRAM-resident: each corrupt record has an intact
		// cached copy, so every scrub heal is a lossless in-place repair.
		store.CacheEntries = 1 << 14
		// Faults land in the stored records (no write-site healing):
		// scrubbing, not flush verification, is under test.
		store.FlushVerifyDisabled = true
	})
	cl := sc.cl

	cfg := chaosTrainConfig(seed)
	if rot {
		// Between batches the cluster is quiescent, as when an operator runs
		// oectl scrub between training steps.
		cfg.BatchStart = func(b int64) {
			if b == 0 || b%chaosCkptEvery != 0 {
				return
			}
			rep, err := cl.Scrub()
			if err != nil {
				t.Fatalf("scrub before batch %d: %v", b, err)
			}
			checkLosslessScrub(t, fmt.Sprintf("scrub before batch %d", b), rep)
			during.Add(rep)
		}
	}
	tr, err := New(cfg, cl)
	if err != nil {
		t.Fatal(err)
	}
	out, err := tr.Run(chaosSteps)
	if err != nil {
		t.Fatalf("run (seed %d, rot %v): %v", seed, rot, err)
	}

	if rot {
		// One full pass sweeps what rotted since the last in-training scrub;
		// a second pass proves the first healed everything.
		final, err = cl.Scrub()
		if err != nil {
			t.Fatalf("scrub: %v", err)
		}
		checkLosslessScrub(t, "final scrub", final)
		again, err := cl.Scrub()
		if err != nil {
			t.Fatalf("re-scrub: %v", err)
		}
		if again.Corrupt != 0 {
			t.Fatalf("second scrub still finds corruption: %+v", again)
		}
		for i, n := range sc.nodes {
			if ep := n.Epoch(); ep != 0 {
				t.Fatalf("node %d epoch = %d after transparent repairs, want 0", i, ep)
			}
		}
	}

	return sc.result(t, cfg, tr, out, inj), during, final
}

// TestScrubSoak: with seeded silent bit-rot landing in stored records all
// through training (flush verification off), scrubs run between batches
// plus one sweep after training must repair every hit in place — zero
// restored, fenced or quarantined entries, zero epoch movement — and the
// final model state must be bit-identical to a fault-free run. It runs the
// chaos soak's seeds.
func TestScrubSoak(t *testing.T) {
	faultinject.RunSeeds(t, func(t *testing.T, seed uint64) {
		ref, _, _ := runScrubCluster(t, seed, false)
		rotted, during, final := runScrubCluster(t, seed, true)

		if rotted.counts[faultinject.KindBitRot] < 1 {
			t.Errorf("bit-rot faults = %d, want >= 1 (rules never fired; raise Prob or steps)",
				rotted.counts[faultinject.KindBitRot])
		}
		if during.Repaired < 1 {
			t.Errorf("in-training scrubs healed %d records (%+v), want >= 1", during.Repaired, during)
		}
		if ref.replays != 0 || rotted.replays != 0 {
			t.Errorf("replays = %d/%d, want 0/0 (repairs must be transparent)", ref.replays, rotted.replays)
		}
		compareChaosStates(t, "scrub-vs-fault-free", ref, rotted)
		t.Logf("survived: faults=%v healed in training=%+v after=%+v — final state bit-identical to fault-free run",
			rotted.counts, during, final)
	})
}
