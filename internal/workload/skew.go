// Package workload generates the DLRM access traces the evaluation runs
// on. The paper's production trace (2.1 B embedding entries, 147 days of a
// retail recommender) is proprietary; this package substitutes generators
// that reproduce its *published* statistics — the Table II access skew, the
// exponential rank-frequency decay of Fig. 10, and the Criteo-Kaggle schema
// used in Sec. VI-F — which are the only properties the experiments consume.
package workload

import (
	"math"
	"math/rand"
	"sort"
)

// KeySampler draws embedding-entry IDs with a configured popularity
// distribution. Implementations are not safe for concurrent use; create one
// per worker with distinct seeds.
type KeySampler interface {
	// Sample returns one key.
	Sample() uint64
	// Keys returns the size of the key space.
	Keys() int
}

// scatter maps a popularity rank to a key. The identity is used: engines
// treat keys as opaque and hash them before sharding, so contiguous hot
// ranks cost nothing, and keeping the mapping trivial lets analyses relate
// keys back to ranks directly.
func scatter(rank, _ int) uint64 { return uint64(rank) }

// TableIIAnchors are the paper's measured cumulative access shares:
// the top 0.05% / 0.1% / 1% of entries receive 85.7% / 89.5% / 95.7% of all
// accesses (Table II).
var TableIIAnchors = []struct {
	RankFrac float64
	CumShare float64
}{
	{0.0005, 0.857},
	{0.001, 0.895},
	{0.01, 0.957},
	{1.0, 1.0},
}

// TableIISkew samples keys with the production trace's skew: a piecewise
// log-linear (i.e., piecewise-exponential) rank CDF interpolated through
// the Table II anchors, which reproduces the published shares exactly.
type TableIISkew struct {
	n       int
	rng     *rand.Rand
	anchors []anchor
}

type anchor struct {
	RankFrac float64
	CumShare float64
}

// NewTableIISkew builds a sampler over n keys.
func NewTableIISkew(n int, seed int64) *TableIISkew {
	return NewTableIISkewAdjusted(n, 1.0, seed)
}

// NewTableIISkewAdjusted builds a Table II-shaped sampler whose tail mass
// is adjusted: each anchor's cumulative share cs becomes 1-(1-cs)^f. This
// is the reproduction of the paper's "more skew" (f > 1, smaller tail) and
// "less skew" (f < 1, heavier tail) workload variants (Fig. 10), which the
// paper generates by modifying the decay parameters while keeping total
// accesses constant.
func NewTableIISkewAdjusted(n int, tailFactor float64, seed int64) *TableIISkew {
	if n < 1 {
		panic("workload: need at least one key")
	}
	if tailFactor <= 0 {
		panic("workload: tail factor must be positive")
	}
	s := &TableIISkew{n: n, rng: rand.New(rand.NewSource(seed))}
	for _, a := range TableIIAnchors {
		s.anchors = append(s.anchors, anchor{
			RankFrac: a.RankFrac,
			CumShare: 1 - math.Pow(1-a.CumShare, tailFactor),
		})
	}
	return s
}

// Keys implements KeySampler.
func (s *TableIISkew) Keys() int { return s.n }

// Sample implements KeySampler via inverse-CDF sampling of the piecewise
// distribution, then scattering the rank over the ID space.
func (s *TableIISkew) Sample() uint64 {
	u := s.rng.Float64()
	rank := rankForQuantile(u, s.n, s.anchors)
	return scatter(rank, s.n)
}

// rankForQuantile inverts the piecewise CDF: given a uniform u, return the
// popularity rank whose cumulative share covers u. Within each anchor
// segment the per-rank frequency is constant on a log scale, so the
// inverse interpolates rank fraction geometrically.
func rankForQuantile(u float64, n int, anchors []anchor) int {
	prevRF, prevCS := 0.0, 0.0
	for _, a := range anchors {
		if u <= a.CumShare || a.CumShare == 1.0 {
			// Interpolate rank fraction within [prevRF, a.RankFrac].
			span := a.CumShare - prevCS
			var t float64
			if span > 0 {
				t = (u - prevCS) / span
			}
			// Geometric interpolation of the rank fraction gives an
			// exponential-decay frequency profile inside the segment.
			lo := math.Max(prevRF, 1e-9)
			hi := math.Max(a.RankFrac, lo)
			rf := lo * math.Pow(hi/lo, t)
			if prevRF == 0 {
				// First segment: linear blend avoids collapsing all mass
				// onto rank 0.
				rf = t * a.RankFrac
			}
			rank := int(rf * float64(n))
			if rank >= n {
				rank = n - 1
			}
			if rank < 0 {
				rank = 0
			}
			return rank
		}
		prevRF, prevCS = a.RankFrac, a.CumShare
	}
	return n - 1
}

// ExpSkew samples keys whose rank-frequency follows the exponential decay
// of Fig. 10: freq(rank) ∝ exp(-lambda * rank / n). Larger lambda means
// more skew. The paper generates its "more skew" and "less skew" variants
// by changing the decay parameter while keeping total accesses constant —
// exactly what varying lambda does here.
type ExpSkew struct {
	n      int
	lambda float64
	rng    *rand.Rand
}

// NewExpSkew builds an exponential-decay sampler over n keys.
func NewExpSkew(n int, lambda float64, seed int64) *ExpSkew {
	if n < 1 || lambda <= 0 {
		panic("workload: need n >= 1 and lambda > 0")
	}
	return &ExpSkew{n: n, lambda: lambda, rng: rand.New(rand.NewSource(seed))}
}

// Keys implements KeySampler.
func (s *ExpSkew) Keys() int { return s.n }

// Sample implements KeySampler. The CDF of the (continuous relaxation of
// the) distribution is F(x) = (1-exp(-lambda*x/n))/(1-exp(-lambda)), whose
// inverse is sampled directly.
func (s *ExpSkew) Sample() uint64 {
	u := s.rng.Float64()
	norm := 1 - math.Exp(-s.lambda)
	x := -math.Log(1-u*norm) / s.lambda // in [0,1)
	rank := int(x * float64(s.n))
	if rank >= s.n {
		rank = s.n - 1
	}
	return scatter(rank, s.n)
}

// UniformKeys samples keys uniformly — the no-skew control.
type UniformKeys struct {
	n   int
	rng *rand.Rand
}

// NewUniformKeys builds a uniform sampler over n keys.
func NewUniformKeys(n int, seed int64) *UniformKeys {
	return &UniformKeys{n: n, rng: rand.New(rand.NewSource(seed))}
}

// Keys implements KeySampler.
func (s *UniformKeys) Keys() int { return s.n }

// Sample implements KeySampler.
func (s *UniformKeys) Sample() uint64 { return uint64(s.rng.Intn(s.n)) }

// Batch draws sample IDs from s until the batch holds `samples` draws, and
// returns the deduplicated key set — what a training worker actually sends
// in its pull request (each distinct embedding entry is looked up once per
// batch, however many inputs reference it).
func Batch(s KeySampler, samples int) []uint64 {
	seen := make(map[uint64]struct{}, samples)
	keys := make([]uint64, 0, samples)
	for i := 0; i < samples; i++ {
		k := s.Sample()
		if _, dup := seen[k]; dup {
			continue
		}
		seen[k] = struct{}{}
		keys = append(keys, k)
	}
	return keys
}

// CountAccesses draws total samples and returns per-key access counts,
// the raw material of the Table II / Fig. 10 analyses.
func CountAccesses(s KeySampler, total int) map[uint64]int {
	counts := make(map[uint64]int)
	for i := 0; i < total; i++ {
		counts[s.Sample()]++
	}
	return counts
}

// TopShare computes, for each rank fraction in fracs, the fraction of all
// accesses received by the most-accessed keys in that fraction of the key
// space — the Table II statistic. keyspace is the total number of keys
// (touched or not).
func TopShare(counts map[uint64]int, keyspace int, fracs []float64) []float64 {
	freqs := make([]int, 0, len(counts))
	total := 0
	for _, c := range counts {
		freqs = append(freqs, c)
		total += c
	}
	sort.Sort(sort.Reverse(sort.IntSlice(freqs)))
	out := make([]float64, len(fracs))
	for i, f := range fracs {
		top := int(f * float64(keyspace))
		if top > len(freqs) {
			top = len(freqs)
		}
		sum := 0
		for _, c := range freqs[:top] {
			sum += c
		}
		if total > 0 {
			out[i] = float64(sum) / float64(total)
		}
	}
	return out
}

// FitExponential fits freq(rank) = A * exp(-lambda * rank / n) to the
// observed counts by frequency-weighted least squares on log-frequency
// (the Fig. 10 fit) and returns lambda. Weighting by frequency makes the
// fit follow the head of the distribution — where the accesses are —
// instead of the long one-count tail.
func FitExponential(counts map[uint64]int, keyspace int) float64 {
	freqs := make([]float64, 0, len(counts))
	for _, c := range counts {
		freqs = append(freqs, float64(c))
	}
	sort.Sort(sort.Reverse(sort.Float64Slice(freqs)))
	var sw, sx, sy, sxx, sxy float64
	n := float64(keyspace)
	for i, f := range freqs {
		if f <= 0 {
			continue
		}
		w := f
		x := float64(i) / n
		y := math.Log(f)
		sw += w
		sx += w * x
		sy += w * y
		sxx += w * x * x
		sxy += w * x * y
	}
	if sw == 0 {
		return 0
	}
	denom := sw*sxx - sx*sx
	if denom == 0 {
		return 0
	}
	slope := (sw*sxy - sx*sy) / denom
	return -slope
}
