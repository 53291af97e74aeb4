//go:build !amd64

package vec

// Axpy sets y[i] += a*x[i] for every i < len(x).
func Axpy(a float32, x, y []float32) { axpyGo(a, x, y) }

// GemvT sets y[o] += x[i]*wT[i*len(y)+o], adding in ascending i.
func GemvT(y, x, wT []float32) { gemvTGo(y, x, wT) }

// FMGrad sets g[j] += dz*(s[j%len(s)] - v[j]) for every j < len(v).
func FMGrad(dz float32, s, v, g []float32) { fmGradGo(dz, s, v, g) }

// AdaGrad runs one AdaGrad step for every i < len(g).
func AdaGrad(lr, eps float32, w, s, g []float32) { adaGradGo(lr, eps, w, s, g) }

// Add sets dst[i] += src[i] for every i < len(dst); len(src) >= len(dst).
func Add(dst, src []float32) { addGo(dst, src) }
