// Package optim implements the server-side optimizers applied when workers
// push gradients for sparse embedding entries (the classic parameter-server
// split: dense parameters are optimized on the GPU workers, sparse entries
// on the PS nodes).
//
// Each optimizer declares how many float32s of per-entry state it needs;
// the engines co-locate that state with the weights, both in the DRAM cache
// and in the PMem record, so a checkpoint captures the complete training
// state of an entry.
package optim

import (
	"fmt"

	"openembedding/internal/vec"
)

// Optimizer updates one embedding entry's weights from a gradient.
// Implementations must be safe for concurrent use on distinct entries.
type Optimizer interface {
	// Name identifies the optimizer in logs and checkpoint metadata.
	Name() string
	// StateFloats is the number of per-entry state float32s for an entry of
	// the given dimension.
	StateFloats(dim int) int
	// InitState initializes a fresh entry's state in place.
	InitState(state []float32)
	// Apply updates weights in place given grad and the entry's state.
	// len(weights) == len(grad) == dim; len(state) == StateFloats(dim).
	Apply(weights, state, grad []float32)
}

// SGD is plain stochastic gradient descent: w -= lr * g. It keeps no
// per-entry state.
type SGD struct {
	// LR is the learning rate.
	LR float32
}

// NewSGD returns an SGD optimizer with the given learning rate.
func NewSGD(lr float32) SGD { return SGD{LR: lr} }

// Name implements Optimizer.
func (SGD) Name() string { return "sgd" }

// StateFloats implements Optimizer.
func (SGD) StateFloats(int) int { return 0 }

// InitState implements Optimizer.
func (SGD) InitState([]float32) {}

// Apply implements Optimizer. It stays a scalar loop: vec.Axpy(-LR, grad,
// weights) adds (-LR*g) + w, and where w and g are both NaN that keeps g's
// NaN, payload and sign, while w - LR*g keeps w's.
func (o SGD) Apply(weights, _, grad []float32) {
	for i := range weights {
		weights[i] -= o.LR * grad[i]
	}
}

// AdaGrad is the adaptive-gradient optimizer commonly used for DLRM sparse
// features: per-coordinate accumulated squared gradients scale the step.
type AdaGrad struct {
	// LR is the base learning rate.
	LR float32
	// Eps avoids division by zero; typically 1e-8.
	Eps float32
	// InitAccum is the initial accumulator value (0.1 in many DLRM setups).
	InitAccum float32
}

// NewAdaGrad returns an AdaGrad optimizer with conventional defaults.
func NewAdaGrad(lr float32) AdaGrad {
	return AdaGrad{LR: lr, Eps: 1e-8, InitAccum: 0.1}
}

// Name implements Optimizer.
func (AdaGrad) Name() string { return "adagrad" }

// StateFloats implements Optimizer: one accumulator per coordinate.
func (AdaGrad) StateFloats(dim int) int { return dim }

// InitState implements Optimizer.
func (o AdaGrad) InitState(state []float32) {
	for i := range state {
		state[i] = o.InitAccum
	}
}

// Apply implements Optimizer: per coordinate, state += g*g, then
// weights -= LR*g / (sqrt(state) + Eps), four coordinates at a time
// (vec.AdaGrad).
func (o AdaGrad) Apply(weights, state, grad []float32) {
	vec.AdaGrad(o.LR, o.Eps, weights, state, grad[:len(weights)])
}

// ByName constructs a registered optimizer from its name, for CLI flags and
// checkpoint metadata.
func ByName(name string, lr float32) (Optimizer, error) {
	switch name {
	case "sgd":
		return NewSGD(lr), nil
	case "adagrad":
		return NewAdaGrad(lr), nil
	default:
		return nil, fmt.Errorf("optim: unknown optimizer %q", name)
	}
}
