package train

import (
	"testing"

	"openembedding/internal/core"
	"openembedding/internal/device"
	"openembedding/internal/obs"
	"openembedding/internal/optim"
	"openembedding/internal/pmem"
	"openembedding/internal/psengine"
	"openembedding/internal/simclock"
)

// TestTrainerObs runs a short training loop with the observability hooks
// attached end to end (trainer and engine sharing one registry, and so one
// span ring) and checks batch/phase histograms and the span tree populate.
func TestTrainerObs(t *testing.T) {
	reg := obs.NewRegistry()
	meter := simclock.NewMeter()

	ecfg := psengine.Config{
		Dim:          8,
		Optimizer:    optim.NewAdaGrad(0.05),
		Capacity:     1 << 16,
		CacheEntries: 4096,
		Meter:        meter,
		Obs:          reg,
	}.WithDefaults()
	payload := pmem.FloatBytes(ecfg.EntryFloats())
	slots := (1 << 16) * 3
	dev := pmem.NewDevice(pmem.ArenaLayout(payload, slots), device.NewTimedPMem(meter))
	t.Cleanup(func() { dev.Close() })
	arena, err := pmem.NewArena(dev, payload, slots)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := core.New(ecfg, arena)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { eng.Close() })

	cfg := trainerConfig(2)
	cfg.Obs = reg
	tr, err := New(cfg, Local{Engine: eng})
	if err != nil {
		t.Fatal(err)
	}
	const steps = 5
	if _, err := tr.Run(steps); err != nil {
		t.Fatal(err)
	}

	s := reg.Snapshot()
	for _, name := range []string{"train_batch_ns", "train_pull_ns", "train_compute_ns", "train_push_ns"} {
		h, ok := s.Histograms[name]
		if !ok || h.Count != steps {
			t.Errorf("%s count = %d, want %d", name, h.Count, steps)
		}
	}
	// Phases nest inside the batch: per-step pull+compute+push never exceeds
	// the batch total.
	if s.Histograms["train_pull_ns"].Sum+s.Histograms["train_compute_ns"].Sum+
		s.Histograms["train_push_ns"].Sum > s.Histograms["train_batch_ns"].Sum {
		t.Error("phase times exceed batch time")
	}
	// Engine-side metrics land in the same registry.
	if s.Histograms["engine_push_ns"].Count == 0 {
		t.Error("engine_push_ns empty: engine did not share the registry")
	}

	counts := map[string]int{}
	for _, sp := range reg.Spans() {
		counts[sp.Name]++
	}
	for _, name := range []string{"train.batch", "train.pull", "train.compute", "train.push"} {
		if counts[name] != steps {
			t.Errorf("%s spans = %d, want %d", name, counts[name], steps)
		}
	}
	// The engine's own maintenance spans share the ring.
	if counts["maint.drain"] == 0 {
		t.Error("no maint.drain spans from the engine")
	}
}
