package train

import (
	"fmt"
	"sort"
	"testing"
	"time"

	"openembedding/internal/cluster"
	"openembedding/internal/faultinject"
	"openembedding/internal/obs"
	"openembedding/internal/optim"
	"openembedding/internal/ps"
	"openembedding/internal/psengine"
	"openembedding/internal/rpc"
	"openembedding/internal/simclock"
	"openembedding/internal/workload"
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

// runPartitionChaos runs the training job against a fresh 3-node cluster;
// with chaos enabled it arms the partition/slow/reset rules. Write-side
// and dial streams only: their occurrence numbers are exact frame/dial
// counts, so the windowed schedules replay bit-identically (read-call
// counts could vary with TCP segmentation).
func runPartitionChaos(t *testing.T, seed uint64, chaos bool) chaosResult {
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
	reg := obs.NewRegistry()
	inj.SetObs(reg)

	var psNodes []*ps.Node
	var addrs []string
	for i := 0; i < chaosNodes; i++ {
		n, err := ps.StartNode("127.0.0.1:0", ps.NodeConfig{
			Engine: "pmem-oe",
			Store: psengine.Config{
				Dim:               chaosDim,
				Optimizer:         optim.NewAdaGrad(0.05),
				Capacity:          1 << 14,
				CacheEntries:      1024,
				Meter:             simclock.NewMeter(),
				Shards:            1,
				RetainCheckpoints: 2,
				Obs:               reg,
			},
			Inject:     inj,
			Label:      fmt.Sprintf("srv%d", i),
			MediaLabel: fmt.Sprintf("m%d", i),
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { n.Close() })
		psNodes = append(psNodes, n)
		addrs = append(addrs, n.Addr())
	}

	cl, err := cluster.DialOpts(chaosDim, addrs, cluster.Options{
		RPC: rpc.Options{
			Retry: rpc.RetryPolicy{
				MaxAttempts: 6,
				Backoff:     time.Millisecond,
				MaxBackoff:  20 * time.Millisecond,
				Seed:        seed,
			},
			ReadTimeout:  2 * time.Second,
			WriteTimeout: 2 * time.Second,
			Inject:       inj,
		},
		Obs: reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cl.Close() })

	tr, err := New(chaosTrainConfig(seed), cl)
	if err != nil {
		t.Fatal(err)
	}
	out, err := tr.Run(chaosSteps)
	if err != nil {
		t.Fatalf("run (seed %d, chaos %v): %v", seed, chaos, err)
	}

	cfg := chaosTrainConfig(seed)
	keySet := map[uint64]bool{}
	stream := cfg.Data(cfg.DataSeed)
	for s := 0; s < chaosSteps; s++ {
		for _, k := range workload.UniqueKeys(stream.NextBatch(cfg.BatchSize)) {
			keySet[k] = true
		}
	}
	keys := make([]uint64, 0, len(keySet))
	for k := range keySet {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	dst := make([]float32, len(keys)*chaosDim)
	if err := cl.Pull(chaosSteps, keys, dst); err != nil {
		t.Fatalf("final readout pull: %v", err)
	}
	emb := make(map[uint64][]float32, len(keys))
	for i, k := range keys {
		emb[k] = dst[i*chaosDim : (i+1)*chaosDim]
	}

	res := chaosResult{
		dense:   tr.Model().Params(),
		emb:     emb,
		steps:   out.Steps,
		counts:  inj.Counts(),
		replays: reg.Snapshot().Counters["cluster_replays"],
	}
	for _, n := range psNodes {
		res.epochs = append(res.epochs, n.Epoch())
	}
	return res
}

// TestPartitionChaosBitIdenticalToFaultFree is the gray-failure tentpole
// gate: training through asymmetric partitions and slow links converges
// to exactly — bit-identically — the state of a fault-free run.
func TestPartitionChaosBitIdenticalToFaultFree(t *testing.T) {
	seed := chaosSeed(t)
	t.Logf("partition chaos seed = %d (set OE_CHAOS_SEED to override)", seed)

	ref := runPartitionChaos(t, seed, false)
	chaos := runPartitionChaos(t, seed, true)

	if got := chaos.counts[faultinject.KindPartition]; got < 1 {
		t.Errorf("partitions = %d, want >= 1 (counts %v)", got, chaos.counts)
	}
	if got := chaos.counts[faultinject.KindSlow]; got < 1 {
		t.Errorf("slow-link delays = %d, want >= 1 (counts %v)", got, chaos.counts)
	}
	if ref.replays != 0 {
		t.Errorf("fault-free run replayed %d times", ref.replays)
	}

	compareChaosStates(t, "partition-chaos-vs-fault-free", ref, chaos)
	t.Logf("survived: faults=%v replays=%d — final state bit-identical to fault-free run",
		chaos.counts, chaos.replays)
}

// TestPartitionChaosDeterministicReplay reruns the identical partition
// schedule: same faults, same replays, same final state — the run is a
// pure function of the printed seed.
func TestPartitionChaosDeterministicReplay(t *testing.T) {
	seed := chaosSeed(t)
	t.Logf("partition chaos seed = %d", seed)
	a := runPartitionChaos(t, seed, true)
	b := runPartitionChaos(t, seed, true)

	if len(a.counts) != len(b.counts) {
		t.Fatalf("fault mixes differ: %v vs %v", a.counts, b.counts)
	}
	for k, v := range a.counts {
		if b.counts[k] != v {
			t.Fatalf("fault counts differ for %v: %d vs %d (full: %v vs %v)", k, v, b.counts[k], a.counts, b.counts)
		}
	}
	if a.replays != b.replays {
		t.Fatalf("replays differ: %d vs %d", a.replays, b.replays)
	}
	compareChaosStates(t, "partition-replay-determinism", a, b)
}
