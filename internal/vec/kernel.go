// Package vec holds the float32 kernels of the hot paths: the dense step's
// axpy, gemvT and fmGrad, the optimizer's AdaGrad, and the element-wise Add
// of the gather's pooling and the trainer's sums.
//
// This file has them in plain Go. Off amd64 they are the only path
// (kernel_other.go binds the kernel names to them); on amd64 they are the
// twins the SSE2 kernels of kernel_amd64.s must equal bit for bit
// (TestKernelsMatchGo). Each body is its caller's own statement, acc +=
// x*y, so a target that fuses a multiply-add fuses these and the callers'
// references alike (DESIGN.md §19).
package vec

import "math"

// axpyGo sets y[i] += a*x[i] for every i < len(x).
func axpyGo(a float32, x, y []float32) {
	y = y[:len(x)]
	for i, v := range x {
		y[i] += a * v
	}
}

// gemvTGo sets y[o] += x[i]*wT[i*len(y)+o] for every o, adding in
// ascending i: wT is a matrix of len(x) rows of len(y) columns, and y
// gains x times it. The SSE2 twin requires len(y) to be a multiple of 4.
func gemvTGo(y, x, wT []float32) {
	w := len(y)
	for i, v := range x {
		row := wT[i*w : (i+1)*w]
		for o := range y {
			y[o] += v * row[o]
		}
	}
}

// fmGradGo sets g[j] += dz*(s[j%len(s)] - v[j]) for every j < len(v): the
// FM term's gradient for the fields laid end to end in v, each against the
// field sum s.
func fmGradGo(dz float32, s, v, g []float32) {
	g = g[:len(v)]
	for j, x := range v {
		g[j] += dz * (s[j%len(s)] - x)
	}
}

// adaGradGo runs one AdaGrad step for every i < len(g): s[i] += g*g, then
// w[i] -= lr*g / (sqrt(s[i]) + eps). float32(math.Sqrt(float64(x))) is the
// correctly rounded float32 root.
func adaGradGo(lr, eps float32, w, s, g []float32) {
	w, s = w[:len(g)], s[:len(g)]
	for i, v := range g {
		s[i] += v * v
		w[i] -= lr * v / (float32(math.Sqrt(float64(s[i]))) + eps)
	}
}

// addGo sets dst[i] += src[i] for every i < len(dst).
func addGo(dst, src []float32) {
	src = src[:len(dst)]
	for i := range dst {
		dst[i] += src[i]
	}
}
