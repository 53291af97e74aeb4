package workload

import (
	"math"
	"math/bits"
	"math/rand"
)

// CriteoNumDense and CriteoNumSparse mirror the Criteo Kaggle display-ads
// schema used in Sec. VI-F: 13 dense (integer) features and 26 categorical
// fields.
const (
	CriteoNumDense  = 13
	CriteoNumSparse = 26
)

// criteoCardinalities approximates the per-field vocabulary sizes of the
// Criteo Kaggle dataset (a mix of tiny fields — weekday-like — and
// multi-million-ID fields), scaled by CriteoConfig.Scale.
var criteoCardinalities = [CriteoNumSparse]int{
	1460, 584, 1000000, 800000, 306, 24,
	12518, 634, 4, 93146, 5684, 1000000,
	3195, 28, 14993, 500000, 11, 5653,
	2173, 4, 1000000, 18, 16, 300000,
	105, 142572,
}

// CriteoConfig configures the synthetic Criteo generator.
type CriteoConfig struct {
	// Scale multiplies every field cardinality (use < 1 to shrink the
	// embedding table for laptop-scale runs). Defaults to 1.
	Scale float64
	// Seed drives the hidden label model. Generators that must agree on
	// what a click is — every worker of one training job, and its held-out
	// evaluation stream — share the same Seed.
	Seed int64
	// StreamSeed drives feature sampling; distinct StreamSeeds give
	// distinct sample streams under the same labeling function. Defaults
	// to Seed+1.
	StreamSeed int64
	// FieldSkew is the per-field popularity decay (exponential lambda);
	// real CTR categorical values are heavily skewed. Defaults to 8.
	FieldSkew float64
}

// CriteoSynthetic generates labeled CTR samples with the Criteo schema:
// 13 dense features, 26 categorical IDs (field-offset so every field owns a
// disjoint key range), and a click label drawn from a hidden logistic model
// over the features — so a real model trained on the stream measurably
// learns (loss decreases, AUC exceeds 0.5).
type CriteoSynthetic struct {
	cfg     CriteoConfig
	cards   [CriteoNumSparse]int
	offsets [CriteoNumSparse]uint64
	total   uint64
	rng     *rand.Rand
	norm    float64 // 1 - exp(-FieldSkew), sampleField's normalizer
	// hidden model: one weight per (field, bucketed id) plus dense weights
	fieldW [CriteoNumSparse][]float32
	denseW [CriteoNumDense]float32
}

// hiddenBuckets bounds the hidden model's per-field weight table; ids are
// bucketed into it so huge vocabularies don't need huge hidden models.
const hiddenBuckets = 128

// NewCriteo builds a generator.
func NewCriteo(cfg CriteoConfig) *CriteoSynthetic {
	if cfg.Scale <= 0 {
		cfg.Scale = 1
	}
	if cfg.FieldSkew <= 0 {
		cfg.FieldSkew = 8
	}
	if cfg.StreamSeed == 0 {
		cfg.StreamSeed = cfg.Seed + 1
	}
	// The hidden label model comes from Seed; the sample stream below is
	// re-seeded from StreamSeed once the model weights are drawn.
	g := &CriteoSynthetic{cfg: cfg, rng: rand.New(rand.NewSource(cfg.Seed)), norm: 1 - math.Exp(-cfg.FieldSkew)}
	var off uint64
	for f, c := range criteoCardinalities {
		n := int(math.Max(2, float64(c)*cfg.Scale))
		g.cards[f] = n
		g.offsets[f] = off
		off += uint64(n)
		w := make([]float32, hiddenBuckets)
		for i := range w {
			w[i] = float32(g.rng.NormFloat64()) * 0.7
		}
		g.fieldW[f] = w
	}
	g.total = off
	for i := range g.denseW {
		g.denseW[i] = float32(g.rng.NormFloat64()) * 0.3
	}
	g.rng = rand.New(rand.NewSource(cfg.StreamSeed))
	return g
}

// Keys returns the total embedding-table size (sum of field cardinalities).
func (g *CriteoSynthetic) Keys() int { return int(g.total) }

// Sample is one labeled CTR example.
type Sample struct {
	// Dense holds the 13 continuous features (already log-normalized).
	Dense [CriteoNumDense]float32
	// Sparse holds one embedding key per categorical field, offset into the
	// global key space.
	Sparse [CriteoNumSparse]uint64
	// Label is 1 for click, 0 otherwise.
	Label float32
}

// Next generates one sample.
func (g *CriteoSynthetic) Next() Sample {
	var s Sample
	logit := float32(-1.0) // base click rate below 50%
	for i := range s.Dense {
		v := float32(math.Abs(g.rng.NormFloat64()))
		s.Dense[i] = v
		logit += g.denseW[i] * v
	}
	for f := 0; f < CriteoNumSparse; f++ {
		id := g.sampleField(f)
		s.Sparse[f] = g.offsets[f] + uint64(id)
		logit += g.fieldW[f][id%hiddenBuckets]
	}
	p := 1 / (1 + math.Exp(-float64(logit)))
	if g.rng.Float64() < p {
		s.Label = 1
	}
	return s
}

// sampleField draws a value id within field f with exponential popularity
// decay.
func (g *CriteoSynthetic) sampleField(f int) int {
	n := g.cards[f]
	lambda := g.cfg.FieldSkew
	u := g.rng.Float64()
	x := -math.Log(1-u*g.norm) / lambda
	id := int(x * float64(n))
	if id >= n {
		id = n - 1
	}
	return id
}

// NextBatch generates n samples.
func (g *CriteoSynthetic) NextBatch(n int) []Sample {
	return g.FillBatch(make([]Sample, n))
}

// FillBatch overwrites dst with the next len(dst) samples and returns it:
// the same draws NextBatch(len(dst)) makes, into a buffer the caller keeps,
// so a trainer that refills one buffer per step generates its stream
// without allocating.
//
// oevet:hotpath
func (g *CriteoSynthetic) FillBatch(dst []Sample) []Sample {
	for i := range dst {
		dst[i] = g.Next()
	}
	return dst
}

// UniqueKeys returns the deduplicated embedding keys referenced by a batch
// of samples — what the worker pulls from the parameter server.
func UniqueKeys(batch []Sample) []uint64 {
	var x KeyIndex
	keys, _ := x.Index(batch, 0, make([]uint64, 0, len(batch)*CriteoNumSparse), nil)
	return keys
}

// KeyIndex indexes a batch's keys: an open-addressed table of
// (key, index) slots, each stamped with the batch that wrote it, so a new
// batch starts empty by bumping the stamp instead of clearing the table.
// The table holds at least twice the keys a batch can have, so a probe
// stays short. The zero value is ready; a KeyIndex is not safe for
// concurrent use.
type KeyIndex struct {
	table []keySlot // a power of two long
	shift uint      // 64 - log2(len(table)): a hash's top bits pick a slot
	gen   uint32    // the current batch's stamp; 0 marks a slot never written
}

type keySlot struct {
	key uint64
	gen uint32
	idx int32
}

// Index deduplicates the keys of a batch over every sparse field, in
// first-seen order, into keys[:0] — the keys UniqueKeys returns — and in
// the same pass records in slots[:0], for each sample and each of its first
// fields fields, the index into keys of that field's key. The returned
// slices reuse the arrays of keys and slots when they have room, so a
// caller that passes back what it got indexes every batch without
// allocating. The table is sized on the first call, and again only for a
// batch longer than any before.
//
// oevet:hotpath
func (x *KeyIndex) Index(batch []Sample, fields int, keys []uint64, slots []int32) ([]uint64, []int32) {
	if need := 2 * len(batch) * CriteoNumSparse; len(x.table) < need {
		b := bits.Len(uint(need - 1))
		x.table = make([]keySlot, 1<<b) //oevet:alloc-ok grow-once table: sized for the longest batch, steady state never regrows
		x.shift, x.gen = uint(64-b), 0
	}
	if x.gen++; x.gen == 0 {
		clear(x.table) // the stamp wrapped: forget every batch at once
		x.gen = 1
	}
	table, mask, gen := x.table, len(x.table)-1, x.gen
	keys, slots = keys[:0], slots[:0]
	for i := range batch {
		for f, k := range &batch[i].Sparse {
			h := int(k * 0x9e3779b97f4a7c15 >> x.shift)
			for table[h].gen == gen && table[h].key != k {
				h = (h + 1) & mask
			}
			sl := &table[h]
			if sl.gen != gen {
				*sl = keySlot{key: k, gen: gen, idx: int32(len(keys))}
				keys = append(keys, k) //oevet:alloc-ok the caller keeps the capacity it grew to
			}
			if f < fields {
				slots = append(slots, sl.idx) //oevet:alloc-ok the caller keeps the capacity it grew to
			}
		}
	}
	return keys, slots
}
