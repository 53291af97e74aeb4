package vec

// The kernels run four lanes wide on SSE2, which every amd64 CPU has. Each
// lane makes the Go twin's roundings on the same operands in the same
// order, so the results are bit-identical (kernel.go). The wrappers
// reslice so the assembly never touches memory the Go twin would not.

// Axpy sets y[i] += a*x[i] for every i < len(x).
func Axpy(a float32, x, y []float32) { axpySSE(a, x, y[:len(x)]) }

// GemvT sets y[o] += x[i]*wT[i*len(y)+o], adding in ascending i; len(y) is
// a multiple of 4.
func GemvT(y, x, wT []float32) { gemvTSSE(y, x, wT[:len(x)*len(y)]) }

// FMGrad sets g[j] += dz*(s[j%len(s)] - v[j]) for every j < len(v).
func FMGrad(dz float32, s, v, g []float32) { fmGradSSE(dz, s, v, g[:len(v)]) }

// AdaGrad runs one AdaGrad step for every i < len(g): s[i] += g[i]*g[i],
// then w[i] -= lr*g[i] / (sqrt(s[i]) + eps). The assembly takes whole
// groups of four; a tail of fewer stays in Go.
func AdaGrad(lr, eps float32, w, s, g []float32) {
	n := len(g) &^ 3
	adaGradSSE(lr, eps, w[:n], s[:n], g[:n])
	adaGradGo(lr, eps, w[n:len(g)], s[n:len(g)], g[n:])
}

// Add sets dst[i] += src[i] for every i < len(dst); len(src) >= len(dst).
// The assembly takes whole groups of four; a tail of fewer stays in Go.
func Add(dst, src []float32) {
	n := len(dst) &^ 3
	addSSE(dst[:n], src[:n])
	addGo(dst[n:], src[n:len(dst)])
}

//go:noescape
func axpySSE(a float32, x, y []float32)

//go:noescape
func gemvTSSE(y, x, wT []float32)

//go:noescape
func fmGradSSE(dz float32, s, v, g []float32)

//go:noescape
func adaGradSSE(lr, eps float32, w, s, g []float32)

//go:noescape
func addSSE(dst, src []float32)
