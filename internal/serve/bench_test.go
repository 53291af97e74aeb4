package serve

import (
	"testing"
	"time"

	"openembedding/internal/obs"
	"openembedding/internal/workload"
)

// benchBagGather measures the full serving request in the shape of the
// end-to-end serve workloads (bench/inputs.go): 65 536 trained keys on the
// default shard count, all snapshot-resident, and one-key-bag gathers drawn
// from a flash crowd whose 4 096-key hot window rotates every 128 requests
// of a 512-request pool — so the index and the row slab are as far out of
// cache as the node's handler finds them, not the 2 048 cache-resident keys
// this rung used to read.
func benchBagGather(b *testing.B, tables, batch int) {
	const (
		dim, trained, hot = 16, 1 << 16, 4096
		pool, rotate      = 512, 128
	)
	e := newTestEngine(b, dim, 1<<18, 1<<17, 0)
	keys := make([]uint64, 8192)
	for lo := 0; lo < trained; lo += len(keys) {
		for i := range keys {
			keys[i] = uint64(lo + i)
		}
		train(b, e, int64(lo/len(keys)), keys, 1.0)
	}
	h := New(e, obs.NewRegistry())
	if err := h.Refresh(); err != nil {
		b.Fatal(err)
	}

	// Precomputed requests, cycled so the timed loop itself allocates
	// nothing.
	fc := workload.NewFlashCrowd(trained, hot, 0.9, time.Second, 42)
	bags := tables * batch
	offsets := make([]uint32, bags+1)
	for i := range offsets {
		offsets[i] = uint32(i)
	}
	reqs := make([][]uint64, pool)
	for v := range reqs {
		fc.Advance(time.Duration(v/rotate) * time.Second)
		keys := make([]uint64, bags)
		for i := range keys {
			keys[i] = fc.Sample()
		}
		reqs[v] = keys
	}
	out := make([]float32, bags*dim)
	if err := h.PullBags(false, offsets, reqs[0], out); err != nil {
		b.Fatal(err)
	}

	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := h.PullBags(false, offsets, reqs[i%pool], out); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(time.Second)/float64(b.Elapsed())*float64(b.N), "req/s")
}

func BenchmarkBagGather26x128(b *testing.B) { benchBagGather(b, 26, 128) }
func BenchmarkBagGather8x16(b *testing.B)   { benchBagGather(b, 8, 16) }
