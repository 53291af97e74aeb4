package model

import (
	"math"
	"math/rand"
	"testing"

	"openembedding/internal/vec"
)

// kernelValue draws a float that is sometimes a signed zero, a subnormal or
// a magnitude near 1e30 (whose products overflow to ±Inf and whose sums of
// opposite infinities are NaN), and otherwise an ordinary normal value.
func kernelValue(rng *rand.Rand) float32 {
	sign := float32(1)
	if rng.Intn(2) == 0 {
		sign = -1
	}
	switch rng.Intn(8) {
	case 0:
		return sign * 0
	case 1:
		return sign * math.Float32frombits(1+uint32(rng.Intn(1<<23-1))) // subnormal
	case 2:
		return sign * float32(1e30*(0.5+rng.Float64()))
	default:
		return float32(rng.NormFloat64())
	}
}

func kernelVector(rng *rand.Rand, n int) []float32 {
	v := make([]float32, n)
	for i := range v {
		v[i] = kernelValue(rng)
	}
	return v
}

func sameBits(t *testing.T, what string, got, want []float32) {
	t.Helper()
	for i := range want {
		if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
			t.Fatalf("%s: [%d] = %v (%#08x), plain loop %v (%#08x)", what, i,
				got[i], math.Float32bits(got[i]), want[i], math.Float32bits(want[i]))
		}
	}
}

// TestKernelsMatchGo holds the kernels the step calls (vec.Axpy, vec.GemvT
// and vec.FMGrad) to the plain statements of the step they stand for, bit
// for bit, at the step's own layout: the FM sum and the embedding
// gradient's delta at a = 1, fields of width 1-16 laid end to end, and
// gemvT output widths 1-20 rounded up to four with zero padding columns, as
// denseLayer.wT holds them. It covers every length 0-67 and inputs with
// signed zeros, subnormals and overflowing magnitudes. Each destination
// carries a guard float past its end that no kernel may touch. The kernels
// against vec's own Go twins, over a wider set of values, are
// internal/vec's TestKernelsMatchGo.
func TestKernelsMatchGo(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	const guard = float32(12345)
	for n := 0; n <= 67; n++ {
		for rep := 0; rep < 4; rep++ {
			a := kernelValue(rng)
			if rep == 0 {
				a = 1
			}
			x := kernelVector(rng, n)
			want := append(kernelVector(rng, n), guard)
			got := append([]float32(nil), want...)
			for i, v := range x {
				want[i] += a * v
			}
			vec.Axpy(a, x, got[:n])
			sameBits(t, "axpy", got, want)

			for _, dim := range []int{1, 3, 4, 5, 8, 16} {
				s := kernelVector(rng, dim)
				want := append(kernelVector(rng, n), guard)
				got := append([]float32(nil), want...)
				for j, v := range x {
					want[j] += a * (s[j%dim] - v)
				}
				vec.FMGrad(a, s, x, got[:n])
				sameBits(t, "fmGrad", got, want)
			}
		}
	}
	for out := 1; out <= 20; out++ {
		w := (out + 3) &^ 3
		for _, n := range []int{0, 1, 3, 16, 17, 67} {
			x := kernelVector(rng, n)
			wT := make([]float32, n*w)
			for i := 0; i < n; i++ {
				for o := 0; o < out; o++ {
					wT[i*w+o] = kernelValue(rng)
				}
			}
			want := append(kernelVector(rng, w), guard)
			got := append([]float32(nil), want...)
			for i, v := range x {
				for o := 0; o < w; o++ {
					want[o] += v * wT[i*w+o]
				}
			}
			vec.GemvT(got[:w], x, wT)
			sameBits(t, "gemvT", got, want)
		}
	}
}
