// engine_comparison runs the same synchronous workload through all four
// storage engines — PMem-OE and the paper's three comparison points — and
// prints both real wall-clock throughput (this machine, scaled-down store)
// and the calibrated virtual-time profile that the paper-scale experiments
// build on (who spends time on which device, and what is hidden behind the
// GPU phase).
package main

import (
	"fmt"
	"log"
	"time"

	"openembedding/internal/device"
	"openembedding/internal/engines"
	"openembedding/internal/optim"
	"openembedding/internal/pmem"
	"openembedding/internal/psengine"
	"openembedding/internal/simclock"
	"openembedding/internal/workload"
)

const (
	dim     = 32
	keys    = 1 << 15
	cache   = 1 << 10
	batches = 60
	draws   = 512
)

// build returns the engine, its meter and its device (nil for dram-ps),
// which the caller closes after the engine.
func build(kind string) (psengine.Engine, *simclock.Meter, *pmem.Device, error) {
	cfg := psengine.Config{
		Dim: dim, Optimizer: optim.NewAdaGrad(0.05),
		Capacity: keys, CacheEntries: cache,
		Meter: simclock.NewMeter(),
	}.WithDefaults()
	var arena *pmem.Arena
	var dev *pmem.Device
	if engines.UsesPMem(kind) {
		payload := pmem.FloatBytes(cfg.EntryFloats())
		dev = pmem.NewDevice(pmem.ArenaLayout(payload, keys*3), device.NewTimedPMem(cfg.Meter))
		var err error
		if arena, err = pmem.NewArena(dev, payload, keys*3); err != nil {
			return nil, nil, nil, err
		}
	}
	e, err := engines.New(kind, cfg, arena, "")
	return e, cfg.Meter, dev, err
}

func main() {
	fmt.Printf("%d keys x dim %d, cache %d entries, %d batches x %d lookups\n\n",
		keys, dim, cache, batches, draws)
	fmt.Printf("%-10s %10s %9s %12s %12s %12s\n",
		"engine", "keys/sec", "miss", "pmem-read", "pmem-write", "serialized")

	for _, kind := range []string{"dram-ps", "pmem-oe", "ori-cache", "pmem-hash"} {
		eng, meter, dev, err := build(kind)
		if err != nil {
			log.Fatal(err)
		}
		sampler := workload.NewTableIISkew(keys, 42)
		grads := make([]float32, draws*dim)
		for i := range grads {
			grads[i] = 0.01
		}
		dst := make([]float32, draws*dim)

		start := time.Now()
		totalKeys := 0
		for b := int64(0); b < batches; b++ {
			ks := workload.Batch(sampler, draws)
			totalKeys += len(ks)
			if err := eng.Pull(b, ks, dst[:len(ks)*dim]); err != nil {
				log.Fatal(err)
			}
			eng.EndPullPhase(b)
			eng.WaitMaintenance()
			if err := eng.Push(b, ks, grads[:len(ks)*dim]); err != nil {
				log.Fatal(err)
			}
			if err := eng.EndBatch(b); err != nil {
				log.Fatal(err)
			}
		}
		elapsed := time.Since(start)
		st := eng.Stats()
		snap := meter.Snapshot()
		fmt.Printf("%-10s %10.0f %8.1f%% %12v %12v %12v\n",
			eng.Name(),
			float64(2*totalKeys)/elapsed.Seconds(), // pull + push ops
			st.MissRate()*100,
			snap.Total(simclock.PMemRead).Round(time.Microsecond),
			snap.Total(simclock.PMemWrite).Round(time.Microsecond),
			snap.Total(simclock.GlobalSync).Round(time.Microsecond))
		eng.Close()
		if dev != nil {
			if err := dev.Close(); err != nil {
				log.Fatal(err)
			}
		}
	}

	fmt.Println("\nreading the virtual-time columns:")
	fmt.Println("  dram-ps   touches no PMem at all — the expensive upper bound")
	fmt.Println("  pmem-oe   pays PMem time, but in the maintenance phase (hidden behind GPU)")
	fmt.Println("  ori-cache pays PMem inline AND serializes on its global LRU lock")
	fmt.Println("  pmem-hash pays PMem on every single operation")
}
