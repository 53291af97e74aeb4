package train

import (
	"testing"
	"time"

	"openembedding/internal/faultinject"
)

// The partition chaos soak (DESIGN.md §16) drives real training through
// asymmetric network partitions and persistently slow links instead of
// crashes: for deterministic occurrence windows, the worker's writes
// toward one node vanish (silent loss, surfacing as instant timeouts),
// another node's *responses* vanish while its requests still arrive, a
// third node's link turns persistently slow, and background resets keep
// firing throughout. Every fault schedule is a pure function of the seed
// — windows are keyed on per-stream write/dial occurrence numbers, never
// wall time — so the runs replay exactly, and the recovery stack (retry
// with a shared budget, rollback + replay, epoch fencing, dedup) must
// land training bit-identically to a fault-free run.

// runPartitionChaos runs the training job against a fresh 3-node cluster
// over the given transport; with chaos enabled it arms the
// partition/slow/reset rules. Write-side and dial streams only: their
// occurrence numbers are exact frame/dial counts, so the windowed schedules
// replay bit-identically, over TCP and in memory alike (read-call counts
// could vary with TCP segmentation).
func runPartitionChaos(t *testing.T, kind string, seed uint64, chaos bool) chaosResult {
	t.Helper()
	var inj *faultinject.Injector
	if chaos {
		inj = faultinject.New(seed,
			// Asymmetric partition A: the worker's writes toward node 1
			// vanish for a 4-occurrence window, then the link heals. The
			// reverse direction is untouched. Windows stay narrower than
			// one request's MaxAttempts: every retry burns at least one
			// occurrence (the redial handshake write), so a single retry
			// cycle is guaranteed to cross the window — partitions heal
			// *because* the victim keeps trying, deterministically.
			faultinject.Rule{Point: faultinject.PointConnWrite, Label: "node1", Kind: faultinject.KindPartition, Prob: 1, From: 30, Until: 34},
			// Asymmetric partition B: node 2's responses toward the worker
			// vanish for a window while its inbound requests still arrive
			// and execute — the classic half-open gray failure.
			faultinject.Rule{Point: faultinject.PointConnWrite, Label: "srv2", Kind: faultinject.KindPartition, Prob: 1, From: 25, Until: 28},
			// Dial-time partition: reconnection attempts 3 and 4 toward
			// node 0 are silent SYN loss.
			faultinject.Rule{Point: faultinject.PointDial, Label: "node0", Kind: faultinject.KindPartition, Prob: 1, From: 3, Until: 5},
			// A persistently slow link to node 0 over a long window: the
			// writes go through, late — gray slowness, not failure.
			faultinject.Rule{Point: faultinject.PointConnWrite, Label: "node0", Kind: faultinject.KindSlow, Prob: 1, Delay: 200 * time.Microsecond, From: 10, Until: 60},
			// Background connection churn everywhere, throughout.
			faultinject.Rule{Point: faultinject.PointConnWrite, Kind: faultinject.KindReset, Prob: 0.01},
		)
	}
	sc := startSoakCluster(t, kind, inj, nil)
	cfg := chaosTrainConfig(seed)
	tr, err := New(cfg, sc.cl)
	if err != nil {
		t.Fatal(err)
	}
	out, err := tr.Run(chaosSteps)
	if err != nil {
		t.Fatalf("run (%s, seed %d, chaos %v): %v", kind, seed, chaos, err)
	}
	return sc.result(t, cfg, tr, out, inj)
}

// TestPartitionChaosBitIdenticalToFaultFree is the gray-failure tentpole
// gate: training through asymmetric partitions and slow links converges
// to exactly — bit-identically — the state of a fault-free run. Each
// transport runs every seed, one schedule run twice, and both transports
// must survive the same faults on each.
func TestPartitionChaosBitIdenticalToFaultFree(t *testing.T) {
	survived := map[string][]survival{}
	for _, kind := range soakTransports {
		t.Run(kind, func(t *testing.T) {
			// No seed reaches a fault-free run: one serves every seed.
			ref := runPartitionChaos(t, kind, 0, false)
			if ref.replays != 0 {
				t.Fatalf("fault-free run replayed %d times", ref.replays)
			}
			faultinject.RunSeeds(t, func(t *testing.T, seed uint64) {
				chaos := runPartitionChaos(t, kind, seed, true)
				if got := chaos.counts[faultinject.KindPartition]; got < 1 {
					t.Errorf("partitions = %d, want >= 1 (counts %v)", got, chaos.counts)
				}
				if got := chaos.counts[faultinject.KindSlow]; got < 1 {
					t.Errorf("slow-link delays = %d, want >= 1 (counts %v)", got, chaos.counts)
				}

				compareChaosStates(t, "partition-chaos-vs-fault-free", ref, chaos)
				t.Logf("survived: faults=%v replays=%d — final state bit-identical to fault-free run",
					chaos.counts, chaos.replays)
				survived[kind] = append(survived[kind], survival{seed, chaos})
			})
		})
	}
	sameSurvival(t, survived)
}
