package train

import (
	"fmt"
	"maps"
	"net"
	"slices"
	"sort"
	"testing"
	"time"

	"openembedding/internal/cluster"
	"openembedding/internal/core"
	"openembedding/internal/faultinject"
	"openembedding/internal/model"
	"openembedding/internal/obs"
	"openembedding/internal/optim"
	"openembedding/internal/ps"
	"openembedding/internal/psengine"
	"openembedding/internal/rpc"
	"openembedding/internal/simclock"
	"openembedding/internal/workload"
)

// The chaos soak drives real DeepFM training through a 3-node PMem-OE
// cluster while a deterministic, seeded fault injector resets/tears/delays
// connections, rots and drops PMem flushes at the media, and a crash
// schedule kills every node at least twice — live, mid-run, with
// crash-recovery from the PMem image. The recovery stack (transparent rpc
// retry + Push dedup, epoch fencing, coordinated rollback, batch replay,
// verified flushes healing media faults at the write site) must make all
// of it invisible: the final model state is bit-identical to a fault-free
// run, and the whole run replays exactly from its printed seed.

const (
	chaosNodes     = 3
	chaosSteps     = 21
	chaosCkptEvery = 3
	chaosBatch     = 24
	chaosDim       = 8
)

func chaosTrainConfig(seed uint64) Config {
	return Config{
		Workers:   1, // multi-worker float summation order is nondeterministic
		BatchSize: chaosBatch,
		Model: model.DeepFMConfig{
			Fields: workload.CriteoNumSparse,
			Dim:    chaosDim,
			Dense:  workload.CriteoNumDense,
			Hidden: []int{16},
			LR:     0.02,
			Seed:   1,
		},
		DataSeed: 100,
		Data: func(s int64) *workload.CriteoSynthetic {
			return workload.NewCriteo(workload.CriteoConfig{Scale: 0.0002, Seed: 5, StreamSeed: s})
		},
		CheckpointEvery: chaosCkptEvery,
	}
}

type chaosResult struct {
	dense   []float32
	emb     map[uint64][]float32
	steps   []StepStats
	counts  map[faultinject.Kind]int64
	replays int64
	epochs  []int64
}

// soakTimeout is every soak connection's deadline: far beyond any healthy
// request, so only an injected partition times out.
const soakTimeout = 2 * time.Second

// soakTransports are the transports the wire soaks run over. Both print the
// same survived: line for a seed (see memNet for why).
var soakTransports = []string{"tcp", "mem"}

// soakNet is a transport: the address node i listens on, how a listener is
// opened and how the worker dials.
type soakNet struct {
	addr   func(node int) string
	listen func(addr string) (net.Listener, error)
	dial   func(addr string) (net.Conn, error)
}

// newSoakNet returns a fresh transport of the given kind: TCP on loopback,
// or "mem", an in-memory network of its own.
func newSoakNet(kind string) soakNet {
	if kind == "mem" {
		mn := newMemNet()
		return soakNet{addr: func(i int) string { return fmt.Sprintf("ps%d", i) }, listen: mn.Listen, dial: mn.Dial}
	}
	return soakNet{
		addr:   func(int) string { return "127.0.0.1:0" },
		listen: func(addr string) (net.Listener, error) { return net.Listen("tcp", addr) },
		dial:   func(addr string) (net.Conn, error) { return net.DialTimeout("tcp", addr, soakTimeout) },
	}
}

// soakCluster is what every soak trains against: chaosNodes pmem-oe nodes
// and a cluster client dialed to them, sharing one metrics registry.
type soakCluster struct {
	nodes []*ps.Node
	cl    *cluster.Client
	reg   *obs.Registry
}

// startSoakCluster starts the soak's nodes on a fresh transport of the given
// kind and dials the cluster client with six attempts per request. inj
// (nil for a fault-free run) reaches every connection and device under a
// stable label per node: "srv<i>" on the node's side of its connections,
// "node<i>" on the worker's, "m<i>" on its PMem media. tune, when set,
// adjusts each node's store config.
func startSoakCluster(t *testing.T, kind string, inj *faultinject.Injector, tune func(*psengine.Config)) soakCluster {
	t.Helper()
	tn := newSoakNet(kind)
	sc := soakCluster{reg: obs.NewRegistry()}
	inj.SetObs(sc.reg)
	var addrs []string
	labels := make(map[string]string) // worker-side stream label by node address
	for i := 0; i < chaosNodes; i++ {
		store := psengine.Config{
			Dim:               chaosDim,
			Optimizer:         optim.NewAdaGrad(0.05),
			Capacity:          1 << 14,
			CacheEntries:      1024,
			Meter:             simclock.NewMeter(),
			Shards:            1, // single shard: deterministic checkpoint progress
			RetainCheckpoints: 2,
			Obs:               sc.reg,
		}
		if tune != nil {
			tune(&store)
		}
		n, err := ps.StartNode(tn.addr(i), ps.NodeConfig{
			Engine: "pmem-oe",
			Store:  store,
			Listen: inj.WrapListen(tn.listen, fmt.Sprintf("srv%d", i)),
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { n.Close() })
		if inj != nil {
			// Armed once, before anything dials: the device outlives
			// Crash, Restart and rollback.
			n.Engine().(*core.Engine).Arena().Device().SetMediaFaults(inj, fmt.Sprintf("m%d", i))
		}
		sc.nodes = append(sc.nodes, n)
		addrs = append(addrs, n.Addr())
		labels[n.Addr()] = fmt.Sprintf("node%d", i)
	}

	cl, err := cluster.DialOpts(chaosDim, addrs, cluster.Options{
		RPC: rpc.Options{
			MaxAttempts: 6,
			Timeout:     soakTimeout,
			Dial:        inj.WrapDial(tn.dial, func(addr string) string { return labels[addr] }),
		},
		Obs: sc.reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cl.Close() })
	sc.cl = cl
	return sc
}

// result reads out the end state of a finished run: every key the run
// trained, in sorted (deterministic) order, the dense parameters, and what
// the injector and the nodes saw.
func (sc soakCluster) result(t *testing.T, cfg Config, tr *Trainer, out EpochStats, inj *faultinject.Injector) chaosResult {
	t.Helper()
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
	if err := sc.cl.Pull(chaosSteps, keys, dst); err != nil {
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
		replays: sc.reg.Snapshot().Counters["cluster_replays"],
	}
	for _, n := range sc.nodes {
		res.epochs = append(res.epochs, n.Epoch())
	}
	return res
}

// runChaosCluster runs the full training job against a fresh 3-node
// cluster over the given transport; with chaos enabled it arms the
// wire-fault rules and the crash schedule, both derived purely from seed.
func runChaosCluster(t *testing.T, kind string, seed uint64, chaos bool) chaosResult {
	t.Helper()
	var inj *faultinject.Injector
	if chaos {
		// Write-side and dial faults only: their per-stream occurrence
		// numbers are exact flush/dial counts, so the schedule replays
		// bit-identically (read-call counts could vary with TCP segmentation).
		inj = faultinject.New(seed,
			faultinject.Rule{Point: faultinject.PointConnWrite, Kind: faultinject.KindReset, Prob: 0.02},
			faultinject.Rule{Point: faultinject.PointConnWrite, Kind: faultinject.KindTorn, Prob: 0.01},
			faultinject.Rule{Point: faultinject.PointConnWrite, Kind: faultinject.KindDelay, Prob: 0.03, Delay: 200 * time.Microsecond},
			faultinject.Rule{Point: faultinject.PointDial, Kind: faultinject.KindReset, Prob: 0.02},
			// Media faults ride along on every record/header flush: a bit
			// rots or the flush is silently dropped. Arming the model turns
			// on flush verification, which proves each flush against the
			// durable image and rewrites it, so even flushes that rot right
			// before a scheduled crash recover to exactly the fault-free
			// state. Each node gets its own media label, so its flush stream
			// numbering (and thus its fault schedule) is independent of its
			// peers and exact across replays.
			faultinject.Rule{Point: faultinject.PointPMemFlush, Kind: faultinject.KindBitRot, Prob: 0.005},
			faultinject.Rule{Point: faultinject.PointPMemFlush, Kind: faultinject.KindDrop, Prob: 0.002},
		)
	}
	sc := startSoakCluster(t, kind, inj, nil)

	cfg := chaosTrainConfig(seed)
	if chaos {
		sched := faultinject.CrashSchedule(seed, chaosNodes, chaosSteps, 2)
		fired := map[int64]bool{}
		cfg.BatchStart = func(b int64) {
			if fired[b] {
				return // replay is passing through a batch already chaos'd
			}
			fired[b] = true
			for _, ni := range sched[b] {
				if err := sc.nodes[ni].Crash(); err != nil {
					t.Fatalf("crash node %d at batch %d: %v", ni, b, err)
				}
				inj.CountCrash()
				if _, err := sc.nodes[ni].Restart(); err != nil {
					t.Fatalf("restart node %d at batch %d: %v", ni, b, err)
				}
			}
		}
	}

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

func compareChaosStates(t *testing.T, label string, want, got chaosResult) {
	t.Helper()
	if len(want.steps) != len(got.steps) {
		t.Fatalf("%s: %d steps vs %d", label, len(want.steps), len(got.steps))
	}
	for i := range want.steps {
		if want.steps[i].Batch != got.steps[i].Batch || want.steps[i].Loss != got.steps[i].Loss {
			t.Fatalf("%s: step %d = %+v, want %+v (bit-exact)", label, i, got.steps[i], want.steps[i])
		}
	}
	if len(want.dense) != len(got.dense) {
		t.Fatalf("%s: dense param count %d vs %d", label, len(want.dense), len(got.dense))
	}
	for i := range want.dense {
		if want.dense[i] != got.dense[i] {
			t.Fatalf("%s: dense[%d] = %v, want %v (bit-exact)", label, i, got.dense[i], want.dense[i])
		}
	}
	if len(want.emb) != len(got.emb) {
		t.Fatalf("%s: embedding key sets differ: %d vs %d", label, len(want.emb), len(got.emb))
	}
	for k, w := range want.emb {
		g, ok := got.emb[k]
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

// TestChaosSoakBitIdenticalToFaultFree: with every node killed at least
// twice and seeded wire faults throughout, training converges bit for bit
// to a fault-free run's losses, dense parameters and embedding tables, on
// each transport and seed; tcp and mem run one schedule twice and must
// survive the same faults. Seeds 19, 23 and 28 (a reset hello write, a
// reset dial, a lost hello reply in a recovery handshake) are regressions.
func TestChaosSoakBitIdenticalToFaultFree(t *testing.T) {
	survived := map[string][]survival{}
	for _, kind := range soakTransports {
		t.Run(kind, func(t *testing.T) {
			// No seed reaches a fault-free run: one serves every seed.
			ref := runChaosCluster(t, kind, 0, false)
			if ref.replays != 0 {
				t.Fatalf("fault-free run replayed %d times", ref.replays)
			}
			faultinject.RunSeeds(t, func(t *testing.T, seed uint64) {
				chaos := runChaosCluster(t, kind, seed, true)
				if chaos.counts[faultinject.KindCrash] < int64(2*chaosNodes) {
					t.Errorf("crashes = %d, want >= %d (every node killed twice)",
						chaos.counts[faultinject.KindCrash], 2*chaosNodes)
				}
				for i, ep := range chaos.epochs {
					if ep < 2 {
						t.Errorf("node %d epoch = %d, want >= 2", i, ep)
					}
				}
				if chaos.replays < 1 {
					t.Errorf("cluster_replays = %d, want >= 1", chaos.replays)
				}
				if media := chaos.counts[faultinject.KindBitRot] + chaos.counts[faultinject.KindDrop]; media < 1 {
					t.Errorf("media faults = %d (counts %v), want >= 1 rotted or dropped flush", media, chaos.counts)
				}

				compareChaosStates(t, "chaos-vs-fault-free", ref, chaos)
				t.Logf("survived: faults=%v replays=%d epochs=%v — final state bit-identical to fault-free run",
					chaos.counts, chaos.replays, chaos.epochs)
				survived[kind] = append(survived[kind], survival{seed, chaos})
			}, 19, 23, 28)
		})
	}
	sameSurvival(t, survived)
}

// survival is the end of one transport's chaos run on one seed.
type survival struct {
	seed uint64
	res  chaosResult
}

// sameSurvival fails unless, on every seed both transports finished, the
// tcp and mem runs injected the same faults, replayed as often and ended at
// the same node epochs: the schedule is a function of the seed, not of the
// transport (see memNet).
func sameSurvival(t *testing.T, survived map[string][]survival) {
	t.Helper()
	mem := map[uint64]chaosResult{}
	for _, s := range survived["mem"] {
		mem[s.seed] = s.res
	}
	for _, s := range survived["tcp"] {
		m, ok := mem[s.seed]
		if !ok {
			continue
		}
		if !maps.Equal(s.res.counts, m.counts) || s.res.replays != m.replays || !slices.Equal(s.res.epochs, m.epochs) {
			t.Errorf("seed=%d: transports diverged: tcp survived faults=%v replays=%d epochs=%v, mem faults=%v replays=%d epochs=%v",
				s.seed, s.res.counts, s.res.replays, s.res.epochs, m.counts, m.replays, m.epochs)
		}
	}
}
