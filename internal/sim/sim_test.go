package sim

import (
	"math"
	"testing"
	"time"

	"openembedding/internal/workload"
)

// quick returns a small config for fast shape tests.
func quick(engine string, gpus int) Config {
	return Config{
		Engine: engine, GPUs: gpus,
		Keys: 1 << 14, Draws: 256,
		WarmupBatches: 4, MeasureBatches: 10,
		Seed: 7,
	}
}

func run(t *testing.T, cfg Config) Result {
	t.Helper()
	res, err := Run(cfg)
	if err != nil {
		t.Fatalf("sim %s/%d: %v", cfg.Engine, cfg.GPUs, err)
	}
	return res
}

// TestEngineOrdering asserts the paper's headline ordering at 8 GPUs:
// DRAM-PS <= PMem-OE < Ori-Cache < PMem-Hash.
func TestEngineOrdering(t *testing.T) {
	times := map[string]time.Duration{}
	for _, e := range []string{"dram-ps", "pmem-oe", "ori-cache", "pmem-hash"} {
		times[e] = run(t, quick(e, 8)).AvgBatch
	}
	if !(times["dram-ps"] <= times["pmem-oe"] &&
		times["pmem-oe"] < times["ori-cache"] &&
		times["ori-cache"] < times["pmem-hash"]) {
		t.Fatalf("ordering violated: %v", times)
	}
	// PMem-OE stays within 15% of the DRAM upper bound.
	if r := float64(times["pmem-oe"]) / float64(times["dram-ps"]); r > 1.15 {
		t.Fatalf("PMem-OE %.3fx DRAM-PS, want close", r)
	}
}

// TestScalingSublinear: doubling GPUs must shrink the epoch, but not by the
// full factor of two (sync overhead and PS load grow).
func TestScalingSublinear(t *testing.T) {
	e4 := run(t, quick("dram-ps", 4)).Epoch
	e16 := run(t, quick("dram-ps", 16)).Epoch
	ratio := float64(e16) / float64(e4)
	if ratio >= 0.5 {
		t.Fatalf("16 GPUs not faster enough: %.3f of 4-GPU epoch", ratio)
	}
	if ratio <= 0.25 {
		t.Fatalf("scaling unrealistically linear: %.3f", ratio)
	}
}

// TestOriCacheDegradesWithGPUs: the black-box cache's gap to DRAM-PS grows
// with worker count (Observation 1).
func TestOriCacheDegradesWithGPUs(t *testing.T) {
	gap := func(g int) float64 {
		d := run(t, quick("dram-ps", g)).AvgBatch
		o := run(t, quick("ori-cache", g)).AvgBatch
		return float64(o) / float64(d)
	}
	g4, g16 := gap(4), gap(16)
	if g16 <= g4 {
		t.Fatalf("Ori-Cache gap did not grow: %.3f at 4 GPUs, %.3f at 16", g4, g16)
	}
}

// TestPipelineHidesMaintenance: PMem-OE's maintenance fits inside the GPU
// phase (the core of Sec. V-A).
func TestPipelineHidesMaintenance(t *testing.T) {
	res := run(t, quick("pmem-oe", 8))
	if res.Phases.Maint >= GPUBatchTime {
		t.Fatalf("maintenance %v not hidden behind GPU %v", res.Phases.Maint, GPUBatchTime)
	}
	if res.Phases.Maint == 0 {
		t.Fatal("no maintenance work measured")
	}
}

// TestAblationOrdering reproduces Fig. 9's ordering: enabling either
// mechanism helps; pipeline helps more; both help most.
func TestAblationOrdering(t *testing.T) {
	variant := func(cacheOff, pipeOff bool) time.Duration {
		cfg := quick("pmem-oe", 8)
		cfg.CacheDisabled = cacheOff
		cfg.PipelineDisabled = pipeOff
		return run(t, cfg).AvgBatch
	}
	neither := variant(true, true)
	cacheOnly := variant(false, true)
	pipeOnly := variant(true, false)
	both := variant(false, false)
	if !(both < pipeOnly && pipeOnly < cacheOnly && cacheOnly < neither) {
		t.Fatalf("ablation ordering violated: both=%v pipe=%v cache=%v neither=%v",
			both, pipeOnly, cacheOnly, neither)
	}
}

// TestMissRateFallsWithCacheSize reproduces Fig. 8's monotonicity.
func TestMissRateFallsWithCacheSize(t *testing.T) {
	var prev float64 = 2
	for _, bytes := range []int64{10 << 20, 400 << 20, 4 << 30} {
		cfg := quick("pmem-oe", 8)
		cfg.CacheBytes = bytes
		res := run(t, cfg)
		if res.MissRate >= prev {
			t.Fatalf("miss rate not decreasing: %v at %d bytes (prev %v)", res.MissRate, bytes, prev)
		}
		prev = res.MissRate
	}
}

// TestCheckpointOverheadOrdering reproduces Fig. 12's ordering: sparse-only
// ~ none < proposed << incremental.
func TestCheckpointOverheadOrdering(t *testing.T) {
	base := quick("pmem-oe", 8)
	base.MeasureBatches = 30
	none := run(t, base).AvgBatch

	withKind := func(k CheckpointKind) time.Duration {
		cfg := base
		cfg.Checkpoint = k
		cfg.CheckpointIntervalMinutes = 5 // 15 sim batches
		return run(t, cfg).AvgBatch
	}
	proposed := withKind(CkptProposed)
	sparse := withKind(CkptSparseOnly)
	incremental := withKind(CkptIncremental)

	if float64(sparse) > float64(none)*1.02 {
		t.Fatalf("sparse-only overhead too high: %v vs %v", sparse, none)
	}
	if proposed <= none || incremental <= proposed {
		t.Fatalf("overhead ordering violated: none=%v proposed=%v incremental=%v", none, proposed, incremental)
	}
	if float64(proposed) > float64(none)*1.1 {
		t.Fatalf("proposed checkpoint overhead too high: %v vs %v", proposed, none)
	}
}

// TestCheckpointsComplete: the proposed checkpoints actually finish during
// simulated training (the functional mechanism, not just timing).
func TestCheckpointsComplete(t *testing.T) {
	cfg := quick("pmem-oe", 4)
	cfg.Checkpoint = CkptProposed
	cfg.CheckpointEveryBatches = 5
	cfg.MeasureBatches = 20
	res := run(t, cfg)
	if res.Ckpts < 3 {
		t.Fatalf("only %d checkpoints triggered", res.Ckpts)
	}
	if res.Stats.CheckpointsDone < 3 {
		t.Fatalf("only %d checkpoints completed", res.Stats.CheckpointsDone)
	}
}

// TestTFDegradesWithGPUsAndDim reproduces Fig. 15's two trends.
func TestTFDegradesWithGPUsAndDim(t *testing.T) {
	gap := func(g, dim int) float64 {
		cfgTF := quick("tf", g)
		cfgTF.Dim = dim
		cfgOE := quick("pmem-oe", g)
		cfgOE.Dim = dim
		return float64(run(t, cfgTF).AvgBatch) / float64(run(t, cfgOE).AvgBatch)
	}
	if g1, g4 := gap(1, 16), gap(4, 16); g4 <= g1 {
		t.Fatalf("TF gap did not grow with GPUs: %.3f -> %.3f", g1, g4)
	}
	if d16, d64 := gap(4, 16), gap(4, 64); d64 <= d16 {
		t.Fatalf("TF gap did not grow with dim: %.3f -> %.3f", d16, d64)
	}
}

func TestRecoveryTimesShape(t *testing.T) {
	ests := RecoveryTimes()
	if len(ests) != 3 {
		t.Fatalf("want 3 recovery estimates, got %d", len(ests))
	}
	ssd, pm, oe := ests[0].Total(), ests[1].Total(), ests[2].Total()
	if !(ssd > pm && pm > oe) {
		t.Fatalf("recovery ordering violated: %v %v %v", ssd, pm, oe)
	}
	speedup := ssd.Seconds() / oe.Seconds()
	if speedup < 3 || speedup > 5 {
		t.Fatalf("speedup %.2fx outside the paper's ~3.97x band", speedup)
	}
}

// TestExpectedUniqueMatchesMonteCarlo validates the analytic dirty-set
// estimator against direct sampling.
func TestExpectedUniqueMatchesMonteCarlo(t *testing.T) {
	const keys = 50_000
	for _, draws := range []int{10_000, 100_000} {
		s := workload.NewTableIISkew(keys, 3)
		counts := workload.CountAccesses(s, draws)
		mc := float64(len(counts))
		analytic := ExpectedUniqueTableII(float64(draws), keys)
		if math.Abs(analytic-mc)/mc > 0.15 {
			t.Fatalf("draws=%d: analytic %.0f vs monte-carlo %.0f", draws, analytic, mc)
		}
	}
	if got := ExpectedUniqueTableII(0, 100); got != 0 {
		t.Fatalf("zero draws -> %v uniques", got)
	}
	// Uniques never exceed the keyspace.
	if got := ExpectedUniqueTableII(1e12, 1000); got > 1000.5 {
		t.Fatalf("uniques %v exceed keyspace", got)
	}
}

func TestTracePairs(t *testing.T) {
	cfg := quick("pmem-oe", 4)
	cfg.RecordTrace = true
	res := run(t, cfg)
	pulls, pushes := res.Trace.PairCounts()
	if pulls == 0 || pulls != pushes {
		t.Fatalf("pull/update pairs broken: %d vs %d", pulls, pushes)
	}
}

func TestStepsPerEpoch(t *testing.T) {
	if s4, s16 := StepsPerEpoch(4), StepsPerEpoch(16); s4 != 4*s16 {
		t.Fatalf("steps not inversely proportional to GPUs: %d vs %d", s4, s16)
	}
}

func TestCacheEntriesForBytesClamp(t *testing.T) {
	if got := CacheEntriesForBytes(1); got != 4 {
		t.Fatalf("tiny cache = %d entries, want clamp to 4", got)
	}
	if CacheEntriesForBytes(2<<30) <= CacheEntriesForBytes(1<<30) {
		t.Fatal("cache entries not monotone in bytes")
	}
}

func TestUnknownEngine(t *testing.T) {
	if _, err := Run(Config{Engine: "bogus"}); err == nil {
		t.Fatal("unknown engine accepted")
	}
}

func TestPhaseTimeResources(t *testing.T) {
	// More nodes must not slow a phase down.
	cfg := quick("dram-ps", 4)
	res := run(t, cfg)
	if res.AvgBatch <= 0 || res.Epoch <= 0 {
		t.Fatal("non-positive times")
	}
}
