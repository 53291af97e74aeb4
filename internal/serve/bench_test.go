package serve

import (
	"testing"
	"time"

	"openembedding/internal/obs"
	"openembedding/internal/workload"
)

// benchBagGather measures the full serving request: a 26-table × 128-sample
// Zipf-ish flash-crowd gather pooled server-side, hot set snapshot-resident.
func benchBagGather(b *testing.B, tables, batch int) {
	const dim = 16
	e := newTestEngine(b, dim, 1<<14, 4096, 4)
	hotKeys := make([]uint64, 2048)
	for i := range hotKeys {
		hotKeys[i] = uint64(i)
	}
	for lo := 0; lo < len(hotKeys); lo += 512 {
		train(b, e, int64(lo/512), hotKeys[lo:lo+512], 1.0)
	}
	h := New(e, obs.NewRegistry())

	// A few precomputed requests drawn from the flash crowd, cycled so the
	// timed loop itself allocates nothing.
	fc := workload.NewFlashCrowd(len(hotKeys), 256, 0.9, time.Hour, 42)
	bags := tables * batch
	offsets := make([]uint32, bags+1)
	for i := range offsets {
		offsets[i] = uint32(i)
	}
	const variants = 8
	reqs := make([][]uint64, variants)
	for v := range reqs {
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
		if err := h.PullBags(false, offsets, reqs[i%variants], out); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(time.Second)/float64(b.Elapsed())*float64(b.N), "req/s")
}

func BenchmarkBagGather26x128(b *testing.B) { benchBagGather(b, 26, 128) }
func BenchmarkBagGather8x16(b *testing.B)   { benchBagGather(b, 8, 16) }
