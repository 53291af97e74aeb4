package workload

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"testing"
)

func TestTableIISkewMatchesAnchors(t *testing.T) {
	const keys = 200_000
	const draws = 400_000
	s := NewTableIISkew(keys, 1)
	counts := CountAccesses(s, draws)
	got := TopShare(counts, keys, []float64{0.0005, 0.001, 0.01})
	want := []float64{0.857, 0.895, 0.957}
	for i := range want {
		if math.Abs(got[i]-want[i]) > 0.03 {
			t.Fatalf("top-share[%d] = %.3f, want %.3f±0.03 (Table II)", i, got[i], want[i])
		}
	}
}

func TestExpSkewMoreLambdaMoreSkew(t *testing.T) {
	const keys = 50_000
	const draws = 200_000
	shares := make([]float64, 3)
	for i, lambda := range []float64{50, 200, 800} {
		s := NewExpSkew(keys, lambda, 1)
		counts := CountAccesses(s, draws)
		shares[i] = TopShare(counts, keys, []float64{0.01})[0]
	}
	if !(shares[0] < shares[1] && shares[1] < shares[2]) {
		t.Fatalf("top-1%% shares not increasing with lambda: %v", shares)
	}
}

func TestUniformKeysNotSkewed(t *testing.T) {
	const keys = 10_000
	s := NewUniformKeys(keys, 1)
	counts := CountAccesses(s, 100_000)
	share := TopShare(counts, keys, []float64{0.01})[0]
	if share > 0.05 {
		t.Fatalf("uniform top-1%% share = %.3f, want ~0.01", share)
	}
}

func TestSamplersStayInRange(t *testing.T) {
	for _, s := range []KeySampler{
		NewTableIISkew(1000, 2),
		NewExpSkew(1000, 100, 2),
		NewUniformKeys(1000, 2),
	} {
		for i := 0; i < 10_000; i++ {
			if k := s.Sample(); k >= 1000 {
				t.Fatalf("%T produced out-of-range key %d", s, k)
			}
		}
		if s.Keys() != 1000 {
			t.Fatalf("%T Keys() = %d", s, s.Keys())
		}
	}
}

func TestSamplersDeterministicPerSeed(t *testing.T) {
	a, b := NewTableIISkew(5000, 7), NewTableIISkew(5000, 7)
	for i := 0; i < 1000; i++ {
		if a.Sample() != b.Sample() {
			t.Fatal("same seed diverged")
		}
	}
}

func TestBatchDeduplicates(t *testing.T) {
	s := NewTableIISkew(100, 3) // tiny key space: many duplicates
	keys := Batch(s, 500)
	seen := map[uint64]bool{}
	for _, k := range keys {
		if seen[k] {
			t.Fatalf("duplicate key %d in batch", k)
		}
		seen[k] = true
	}
	if len(keys) == 0 || len(keys) > 100 {
		t.Fatalf("batch size %d out of range", len(keys))
	}
	// With 500 draws over a 100-key skewed space, dedup must shrink it.
	if len(keys) == 500 {
		t.Fatal("dedup removed nothing")
	}
}

func TestFitExponentialRecoversLambda(t *testing.T) {
	const keys = 20_000
	const lambda = 100.0
	s := NewExpSkew(keys, lambda, 4)
	counts := CountAccesses(s, 2_000_000)
	got := FitExponential(counts, keys)
	// The fit sees only the touched prefix of the key space; accept a wide
	// band around the true decay.
	if got < lambda/2 || got > lambda*2 {
		t.Fatalf("fitted lambda = %.1f, want ~%.0f", got, lambda)
	}
}

func TestTopShareEdgeCases(t *testing.T) {
	if got := TopShare(map[uint64]int{}, 100, []float64{0.5}); got[0] != 0 {
		t.Fatalf("empty counts share = %v", got)
	}
	counts := map[uint64]int{1: 10}
	if got := TopShare(counts, 1, []float64{1.0}); got[0] != 1.0 {
		t.Fatalf("single key share = %v", got)
	}
}

func TestCriteoSchema(t *testing.T) {
	g := NewCriteo(CriteoConfig{Scale: 0.001, Seed: 1})
	if g.Keys() <= 0 {
		t.Fatal("empty key space")
	}
	batch := g.NextBatch(256)
	if len(batch) != 256 {
		t.Fatalf("batch len %d", len(batch))
	}
	for _, s := range batch {
		for f, k := range s.Sparse {
			lo := g.offsets[f]
			hi := lo + uint64(g.cards[f])
			if k < lo || k >= hi {
				t.Fatalf("field %d key %d outside [%d,%d)", f, k, lo, hi)
			}
		}
		if s.Label != 0 && s.Label != 1 {
			t.Fatalf("label %v", s.Label)
		}
	}
}

func TestCriteoLabelsAreLearnable(t *testing.T) {
	g := NewCriteo(CriteoConfig{Scale: 0.001, Seed: 2})
	batch := g.NextBatch(4000)
	// Base rate strictly between 0 and 1, and not degenerate.
	clicks := 0
	for _, s := range batch {
		if s.Label == 1 {
			clicks++
		}
	}
	rate := float64(clicks) / float64(len(batch))
	if rate < 0.05 || rate > 0.8 {
		t.Fatalf("click rate %.3f degenerate", rate)
	}
}

func TestCriteoFieldSkew(t *testing.T) {
	g := NewCriteo(CriteoConfig{Scale: 1, Seed: 3})
	// The largest field must still show popularity concentration.
	counts := map[uint64]int{}
	for i := 0; i < 20000; i++ {
		s := g.Next()
		counts[s.Sparse[2]]++ // a ~1M-cardinality field
	}
	share := TopShare(counts, g.cards[2], []float64{0.01})[0]
	if share < 0.2 {
		t.Fatalf("top-1%% share of big field = %.3f, want skewed (>0.2)", share)
	}
}

// TestCriteoStreamPinned: the synthetic stream is a function of its seeds
// alone. An FNV-1a hash over every feature, key and label of the first
// 4 × 512 samples of one (Seed, StreamSeed) equals the value captured when
// the test was written, so a generator change that moves one draw shows.
func TestCriteoStreamPinned(t *testing.T) {
	const want = 0x65d1074f8cdcdb17
	g := NewCriteo(CriteoConfig{Scale: 0.01, Seed: 9, StreamSeed: 3})
	h := fnv.New64a()
	var buf [8]byte
	for b := 0; b < 4; b++ {
		for _, s := range g.NextBatch(512) {
			for _, v := range s.Dense {
				binary.LittleEndian.PutUint32(buf[:4], math.Float32bits(v))
				h.Write(buf[:4])
			}
			for _, k := range s.Sparse {
				binary.LittleEndian.PutUint64(buf[:], k)
				h.Write(buf[:])
			}
			binary.LittleEndian.PutUint32(buf[:4], math.Float32bits(s.Label))
			h.Write(buf[:4])
		}
	}
	if got := h.Sum64(); got != want {
		t.Fatalf("stream hash %#x, want %#x: the sample stream moved", got, want)
	}
}

// TestFillBatchMatchesNextBatch: FillBatch into a reused, dirty buffer is
// the same stream as NextBatch, draw for draw. Two generators with the same
// seeds take the same batch sizes, one by NextBatch where the other fills,
// and every sample agrees bit for bit.
func TestFillBatchMatchesNextBatch(t *testing.T) {
	cfg := CriteoConfig{Scale: 0.01, Seed: 9, StreamSeed: 3}
	a, b := NewCriteo(cfg), NewCriteo(cfg)
	bufA, bufB := make([]Sample, 512), make([]Sample, 512)
	for i := range bufA {
		bufA[i].Sparse[0], bufA[i].Dense[0], bufA[i].Label = ^uint64(0), -1, 7
		bufB[i] = bufA[i]
	}
	for step, n := range []int{512, 3, 512, 0, 100, 1, 512, 257} {
		var x, y []Sample
		if step%2 == 0 {
			x, y = a.FillBatch(bufA[:n]), b.NextBatch(n)
		} else {
			x, y = a.NextBatch(n), b.FillBatch(bufB[:n])
		}
		if len(x) != n || len(y) != n {
			t.Fatalf("step %d: %d and %d samples, want %d", step, len(x), len(y), n)
		}
		if step%2 == 0 && n > 0 && &x[0] != &bufA[0] {
			t.Fatalf("step %d: FillBatch did not fill the buffer it was given", step)
		}
		for i := range x {
			if !sameSample(&x[i], &y[i]) {
				t.Fatalf("step %d sample %d: %+v, want %+v", step, i, x[i], y[i])
			}
		}
	}
}

func sameSample(x, y *Sample) bool {
	for i := range x.Dense {
		if math.Float32bits(x.Dense[i]) != math.Float32bits(y.Dense[i]) {
			return false
		}
	}
	return x.Sparse == y.Sparse && math.Float32bits(x.Label) == math.Float32bits(y.Label)
}

func TestUniqueKeysDedup(t *testing.T) {
	g := NewCriteo(CriteoConfig{Scale: 0.0005, Seed: 4})
	batch := g.NextBatch(512)
	keys := UniqueKeys(batch)
	seen := map[uint64]bool{}
	for _, k := range keys {
		if seen[k] {
			t.Fatalf("duplicate key %d", k)
		}
		seen[k] = true
	}
	if len(keys) >= 512*CriteoNumSparse {
		t.Fatal("no dedup happened")
	}
}

// TestIndexKeysSlots: every slot names its (sample, field)'s key, fields
// past the first ones get no slot, and a second batch indexed into the
// first one's buffers allocates nothing.
func TestIndexKeysSlots(t *testing.T) {
	const fields = 20
	g := NewCriteo(CriteoConfig{Scale: 0.0005, Seed: 4})
	batch := g.NextBatch(512)
	seen := map[uint64]int32{}
	keys, slots := IndexKeys(batch, fields, seen, nil, nil)
	if len(slots) != len(batch)*fields {
		t.Fatalf("%d slots for %d samples of %d fields", len(slots), len(batch), fields)
	}
	for s := range batch {
		for f := 0; f < fields; f++ {
			if k := keys[slots[s*fields+f]]; k != batch[s].Sparse[f] {
				t.Fatalf("sample %d field %d: slot names key %d, sample has %d", s, f, k, batch[s].Sparse[f])
			}
		}
	}
	if allocs := testing.AllocsPerRun(10, func() {
		keys, slots = IndexKeys(batch, fields, seen, keys, slots)
	}); allocs != 0 {
		t.Errorf("re-indexing allocated %.0f times", allocs)
	}
}

func TestAdjustedSkewTailOrdering(t *testing.T) {
	const keys = 100_000
	const draws = 200_000
	tail := func(f float64) float64 {
		s := NewTableIISkewAdjusted(keys, f, 1)
		counts := CountAccesses(s, draws)
		return 1 - TopShare(counts, keys, []float64{0.01})[0] // mass beyond top 1%
	}
	more, orig, less := tail(1.1), tail(1.0), tail(0.9)
	if !(more < orig && orig < less) {
		t.Fatalf("tail masses not ordered: more=%.4f orig=%.4f less=%.4f", more, orig, less)
	}
}

func TestAdjustedSkewValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("non-positive tail factor accepted")
		}
	}()
	NewTableIISkewAdjusted(100, 0, 1)
}
