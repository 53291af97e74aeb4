//go:build !amd64

package model

func axpy(a float32, x, y []float32) { axpyGo(a, x, y) }

func gemvT(y, x, wT []float32) { gemvTGo(y, x, wT) }

func fmGrad(dz float32, s, v, g []float32) { fmGradGo(dz, s, v, g) }
