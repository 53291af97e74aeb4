package model

// The kernels run four lanes wide on SSE2, which every amd64 CPU has. Each
// lane makes the Go twin's two roundings, the product and then the sum, on
// the same operands in the same order, so the results are bit-identical
// (kernel.go). The wrappers reslice so the assembly never touches memory
// the Go twin would not.

// axpy sets y[i] += a*x[i] for every i < len(x).
func axpy(a float32, x, y []float32) { axpySSE(a, x, y[:len(x)]) }

// gemvT sets y[o] += x[i]*wT[i*len(y)+o], adding in ascending i; len(y) is
// a multiple of 4.
func gemvT(y, x, wT []float32) { gemvTSSE(y, x, wT[:len(x)*len(y)]) }

// fmGrad sets g[j] += dz*(s[j%len(s)] - v[j]) for every j < len(v).
func fmGrad(dz float32, s, v, g []float32) { fmGradSSE(dz, s, v, g[:len(v)]) }

//go:noescape
func axpySSE(a float32, x, y []float32)

//go:noescape
func gemvTSSE(y, x, wT []float32)

//go:noescape
func fmGradSSE(dz float32, s, v, g []float32)
