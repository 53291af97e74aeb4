package vec

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// kernelValue draws a float that is sometimes a signed zero, a subnormal, a
// magnitude near 1e30 (whose products overflow to ±Inf and whose sums of
// opposite infinities are NaN), a magnitude near 1e-25 (whose squares
// underflow to zero), ±Inf or a NaN with a random payload and sign, and
// otherwise an ordinary normal value.
func kernelValue(rng *rand.Rand) float32 {
	sign := float32(1)
	if rng.Intn(2) == 0 {
		sign = -1
	}
	switch rng.Intn(10) {
	case 0:
		return sign * 0
	case 1:
		return sign * math.Float32frombits(1+uint32(rng.Intn(1<<23-1))) // subnormal
	case 2:
		return sign * float32(1e30*(0.5+rng.Float64()))
	case 3:
		return sign * float32(1e-25*(0.5+rng.Float64()))
	case 4:
		if rng.Intn(2) == 0 {
			return sign * float32(math.Inf(1))
		}
		nan := math.Float32frombits(0x7f800000 | uint32(1+rng.Intn(1<<23-1)))
		return math.Float32frombits(math.Float32bits(nan) | math.Float32bits(sign)&(1<<31))
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
			t.Fatalf("%s: [%d] = %v (%#08x), Go twin %v (%#08x)", what, i,
				got[i], math.Float32bits(got[i]), want[i], math.Float32bits(want[i]))
		}
	}
}

// TestKernelsMatchGo holds every kernel to its plain-Go twin bit for bit:
// on amd64 that is the SSE2 assembly against kernel.go, elsewhere the twins
// themselves. It covers every length 0-67 (every four-wide and sixteen-wide
// remainder), gemvT output widths 4-20 whose columns past the layer's width
// are zero padding, and inputs with signed zeros, subnormals, overflowing
// and underflowing magnitudes, ±Inf and NaNs. Each destination carries a
// guard float past its end that no kernel may touch.
func TestKernelsMatchGo(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	const guard = float32(12345)
	for n := 0; n <= 67; n++ {
		for rep := 0; rep < 4; rep++ {
			a := kernelValue(rng)
			if rep == 0 {
				a = 1 // the FM sum and the embedding gradient's delta
			}
			x := kernelVector(rng, n)
			want := append(kernelVector(rng, n), guard)
			got := append([]float32(nil), want...)
			axpyGo(a, x, want[:n])
			Axpy(a, x, got[:n])
			sameBits(t, "axpy", got, want)

			for _, dim := range []int{1, 3, 4, 5, 8, 16} {
				s := kernelVector(rng, dim)
				want := append(kernelVector(rng, n), guard)
				got := append([]float32(nil), want...)
				fmGradGo(a, s, x, want[:n])
				FMGrad(a, s, x, got[:n])
				sameBits(t, "fmGrad", got, want)
			}

			// src may be longer than dst, as a gathered row is.
			src := kernelVector(rng, n+n%3)
			want = append(kernelVector(rng, n), guard)
			got = append([]float32(nil), want...)
			addGo(want[:n], src)
			Add(got[:n], src)
			sameBits(t, fmt.Sprintf("add n=%d", n), got, want)

			lr, eps := float32(0.05), float32(1e-8) // NewAdaGrad's, and the benchmark's rate
			if rep > 0 {
				lr, eps = kernelValue(rng), kernelValue(rng)
			}
			wantW := append(kernelVector(rng, n), guard)
			wantS := append(kernelVector(rng, n), guard)
			if rep == 0 {
				for i := range wantS[:n] {
					wantS[i] = float32(math.Abs(float64(wantS[i]))) // an accumulator as training leaves it
				}
			}
			gotW := append([]float32(nil), wantW...)
			gotS := append([]float32(nil), wantS...)
			adaGradGo(lr, eps, wantW[:n], wantS[:n], x)
			AdaGrad(lr, eps, gotW[:n], gotS[:n], x)
			sameBits(t, fmt.Sprintf("adaGrad n=%d lr=%v eps=%v: s", n, lr, eps), gotS, wantS)
			sameBits(t, fmt.Sprintf("adaGrad n=%d lr=%v eps=%v: w", n, lr, eps), gotW, wantW)
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
			gemvTGo(want[:w], x, wT)
			GemvT(got[:w], x, wT)
			sameBits(t, "gemvT", got, want)
		}
	}
}

// BenchmarkAdd is the summation kernel at one row and at one node's share
// of a 26x128 gather.
func BenchmarkAdd(b *testing.B) {
	for _, n := range []int{16, 3328 * 16} {
		dst, src := make([]float32, n), make([]float32, n)
		b.Run(fmt.Sprint(n), func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(int64(4 * n))
			for i := 0; i < b.N; i++ {
				Add(dst, src)
			}
		})
	}
}
