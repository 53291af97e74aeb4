// Package model implements the dense part of the DLRM the evaluation
// trains: DeepFM [36] — a factorization machine over the field embeddings
// plus a multi-layer perceptron — with real float32 forward/backward math.
//
// In the paper this part runs on the GPU workers; here it runs on the CPU.
// The parameter-server experiments only need its *interaction pattern*
// (pull embeddings, compute, push gradients) plus a calibrated per-batch
// compute time, but a real trainable model keeps the functional path honest:
// examples/ctr_deepfm shows the loss actually decreasing through the full
// PS stack.
package model

import (
	"fmt"
	"math"
	"math/rand"

	"openembedding/internal/vec"
)

// DeepFMConfig sizes a DeepFM model.
type DeepFMConfig struct {
	// Fields is the number of categorical fields (one embedding per field
	// per example).
	Fields int
	// Dim is the embedding dimension.
	Dim int
	// Dense is the number of continuous features.
	Dense int
	// Hidden lists the MLP hidden-layer widths. Defaults to [64, 32].
	Hidden []int
	// LR is the learning rate for the dense parameters (plain SGD).
	LR float32
	// Seed initializes the dense parameters.
	Seed int64
}

func (c DeepFMConfig) withDefaults() DeepFMConfig {
	if len(c.Hidden) == 0 {
		c.Hidden = []int{64, 32}
	}
	if c.LR == 0 {
		c.LR = 0.01
	}
	return c
}

// Check reports a configuration NewDeepFM cannot build: a non-positive
// field count, embedding dimension or hidden width, or a negative dense
// feature count.
func (c DeepFMConfig) Check() error {
	if c.Fields <= 0 || c.Dim <= 0 {
		return fmt.Errorf("model: Fields (%d) and Dim (%d) must be positive", c.Fields, c.Dim)
	}
	if c.Dense < 0 {
		return fmt.Errorf("model: Dense (%d) must not be negative", c.Dense)
	}
	for _, h := range c.Hidden {
		if h <= 0 {
			return fmt.Errorf("model: hidden widths %v must be positive", c.Hidden)
		}
	}
	return nil
}

// layer is one fully connected layer.
type layer struct {
	in, out int
	w       []float32 // out x in, row-major
	wT      []float32 // w transposed, in x out rounded up to 4; the padding columns stay zero
	b       []float32
	gW, gB  []float32 // the batch's accumulated gradient of w and b
	act     []float32 // one example's output: post-ReLU on hidden layers, linear on the last; cap is wT's width
}

func newLayer(in, out int) layer {
	width := (out + 3) &^ 3
	return layer{
		in: in, out: out,
		w:   make([]float32, in*out),
		wT:  make([]float32, in*width),
		b:   make([]float32, out),
		gW:  make([]float32, in*out),
		gB:  make([]float32, out),
		act: make([]float32, width)[:out],
	}
}

// transpose rebuilds wT from w. Everything that writes w calls it.
func (l *layer) transpose() {
	width := cap(l.act)
	for o := 0; o < l.out; o++ {
		for i, x := range l.w[o*l.in : (o+1)*l.in] {
			l.wT[i*width+o] = x
		}
	}
}

// DeepFM is the dense model. It is not safe for concurrent use — not even
// Predict and Loss, which share the training scratch; in data-parallel
// training each worker owns a replica and gradients are averaged (the
// Horovod allreduce of the paper's setup, which internal/train performs).
type DeepFM struct {
	cfg     DeepFMConfig
	layers  []layer // MLP over [embeddings ++ dense], final layer scalar
	wDense  []float32
	bias    float32
	nParams int

	// One example's scratch, reused by every call (DESIGN.md §19).
	input        []float32 // embeddings ++ dense: the first layer's input
	fmSum        []float32 // sum of the field embedding vectors
	delta, spare []float32 // backprop: the gradient at a layer's output, and the buffer for its input's
	gDense       []float32 // the batch's accumulated gradient of wDense
}

// NewDeepFM builds a model with Xavier-initialized dense parameters. It
// panics on a configuration Check rejects.
func NewDeepFM(cfg DeepFMConfig) *DeepFM {
	cfg = cfg.withDefaults()
	if err := cfg.Check(); err != nil {
		panic(err)
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	m := &DeepFM{cfg: cfg, wDense: make([]float32, cfg.Dense)}
	for i := range m.wDense {
		m.wDense[i] = float32(rng.NormFloat64()) * 0.1
	}
	in := cfg.Fields*cfg.Dim + cfg.Dense
	m.input = make([]float32, in)
	widest := in
	widths := append(append([]int{}, cfg.Hidden...), 1)
	for _, out := range widths {
		l := newLayer(in, out)
		bound := float32(math.Sqrt(6 / float64(in+out)))
		for i := range l.w {
			l.w[i] = (rng.Float32()*2 - 1) * bound
		}
		l.transpose()
		m.nParams += len(l.w) + len(l.b)
		widest = max(widest, out)
		m.layers = append(m.layers, l)
		in = out
	}
	m.nParams += len(m.wDense) + 1
	m.fmSum = make([]float32, cfg.Dim)
	m.delta, m.spare = make([]float32, widest), make([]float32, widest)
	m.gDense = make([]float32, cfg.Dense)
	return m
}

// Config returns the model configuration (defaults applied).
func (m *DeepFM) Config() DeepFMConfig { return m.cfg }

// InputFloats returns the embedding floats one example consumes
// (Fields * Dim).
func (m *DeepFM) InputFloats() int { return m.cfg.Fields * m.cfg.Dim }

// forward runs one example and returns its logit. It leaves what the
// backward pass reads in the scratch: the input, the field sum and every
// layer's activations. The one forward kernel: Step, Predict and Loss all
// run it.
func (m *DeepFM) forward(emb, dense []float32) float32 {
	dim := m.cfg.Dim

	// FM second order: 0.5 * (||sum_f v_f||^2 - sum_f ||v_f||^2).
	// fmSum adds 1*v_f, which is v_f exactly; sumSq is one ordered chain,
	// so it stays scalar.
	fmSum := m.fmSum
	clear(fmSum)
	for f := 0; f < m.cfg.Fields; f++ {
		vec.Axpy(1, emb[f*dim:(f+1)*dim], fmSum)
	}
	var sumSq, normSq float32
	for _, x := range emb {
		sumSq += x * x
	}
	for _, x := range fmSum {
		normSq += x * x
	}
	fm := 0.5 * (normSq - sumSq)

	// MLP over [embeddings ++ dense].
	copy(m.input, emb)
	copy(m.input[len(emb):], dense)
	a := m.input
	for li := range m.layers {
		l := &m.layers[li]
		l.forward(a, li < len(m.layers)-1)
		a = l.act
	}

	z := m.bias + fm + a[0]
	for i, x := range dense {
		z += m.wDense[i] * x
	}
	return z
}

// forward sets act[o] = relu?(b[o] + sum_i w[o][i]*a[i]). Each row's sum
// starts at b[o] and runs in ascending i, as a plain dot product would;
// gemvT runs every row's sum in one pass over a.
func (l *layer) forward(a []float32, relu bool) {
	y := l.act[:cap(l.act)]
	clear(y[copy(y, l.b):])
	vec.GemvT(y, a, l.wT)
	if relu {
		for o, s := range l.act {
			if s < 0 {
				l.act[o] = 0
			}
		}
	}
}

// backward accumulates one example's gradient of w and b from delta, the
// gradient at the layer's output, and aPrev, its input; it writes the
// gradient at the input into next. Rows whose delta is zero add nothing and
// are skipped. next[i] sums its rows' terms in ascending row order.
func (l *layer) backward(next, delta, aPrev []float32) {
	n := len(aPrev)
	clear(next)
	for o, d := range delta {
		if d == 0 {
			continue
		}
		vec.Axpy(d, aPrev, l.gW[o*n:(o+1)*n])
		vec.Axpy(d, l.w[o*n:(o+1)*n], next)
		l.gB[o] += d
	}
}

func sigmoid(z float32) float32 {
	return float32(1 / (1 + math.Exp(-float64(z))))
}

// checkBatch validates the buffers of n examples.
func (m *DeepFM) checkBatch(emb, dense []float32, n int) error {
	cfg := m.cfg
	if len(emb) != n*cfg.Fields*cfg.Dim {
		return fmt.Errorf("model: emb has %d floats, want %d", len(emb), n*cfg.Fields*cfg.Dim) //oevet:alloc-ok a malformed batch is a caller bug, not the steady state
	}
	if len(dense) != n*cfg.Dense {
		return fmt.Errorf("model: dense has %d floats, want %d", len(dense), n*cfg.Dense) //oevet:alloc-ok a malformed batch is a caller bug, not the steady state
	}
	return nil
}

// Step trains on one mini-batch. emb holds the pulled embeddings, one
// example after another (n * Fields * Dim floats); dense holds n * Dense
// floats; labels holds n values in {0, 1}.
//
// It returns the mean log loss and writes the gradient of the loss with
// respect to every embedding input into embGrad (same layout as emb, every
// float overwritten), for pushing back to the parameter server. Dense
// parameters are updated in place with SGD. A Step allocates nothing.
//
// oevet:hotpath
func (m *DeepFM) Step(emb, dense, labels, embGrad []float32) (float64, error) {
	cfg := m.cfg
	n := len(labels)
	if err := m.checkBatch(emb, dense, n); err != nil {
		return 0, err
	}
	if len(embGrad) != len(emb) {
		return 0, fmt.Errorf("model: embGrad has %d floats, want %d", len(embGrad), len(emb)) //oevet:alloc-ok a malformed batch is a caller bug, not the steady state
	}

	clear(embGrad)
	// Accumulated dense-parameter gradients (applied after the batch).
	for li := range m.layers {
		clear(m.layers[li].gW)
		clear(m.layers[li].gB)
	}
	gDense := m.gDense
	clear(gDense)
	var gBias float32
	var totalLoss float64

	in := cfg.Fields * cfg.Dim
	for ex := 0; ex < n; ex++ {
		embEx := emb[ex*in : (ex+1)*in]
		denseEx := dense[ex*cfg.Dense : (ex+1)*cfg.Dense]
		p := sigmoid(m.forward(embEx, denseEx))
		y := labels[ex]
		totalLoss += logLossOne(float64(p), float64(y))

		// dLoss/dz for sigmoid + BCE.
		dz := (p - y) / float32(n)
		gBias += dz
		for i, x := range denseEx {
			gDense[i] += dz * x
		}

		// FM second-order gradient: d fm / d v_f = fmSum - v_f.
		gEmbEx := embGrad[ex*in : (ex+1)*in]
		vec.FMGrad(dz, m.fmSum, embEx, gEmbEx)

		// MLP backprop: delta is the gradient at the (linear) output layer.
		delta, spare := m.delta[:1], m.spare
		delta[0] = dz
		for li := len(m.layers) - 1; li >= 0; li-- {
			l := &m.layers[li]
			aPrev := m.input
			if li > 0 {
				aPrev = m.layers[li-1].act
			}
			next := spare[:l.in]
			l.backward(next, delta, aPrev)
			if li > 0 {
				// ReLU gate of the previous layer.
				for i, a := range aPrev {
					if a <= 0 {
						next[i] = 0
					}
				}
			}
			delta, spare = next, delta[:cap(delta)]
		}
		// delta now holds dLoss/dInput; its embedding prefix adds to the
		// embedding gradient.
		vec.Axpy(1, delta[:in], gEmbEx)
	}

	// Apply SGD to the dense parameters.
	lr := cfg.LR
	for li := range m.layers {
		l := &m.layers[li]
		for i := range l.w {
			l.w[i] -= lr * l.gW[i]
		}
		for i := range l.b {
			l.b[i] -= lr * l.gB[i]
		}
		l.transpose()
	}
	for i := range m.wDense {
		m.wDense[i] -= lr * gDense[i]
	}
	m.bias -= lr * gBias

	return totalLoss / float64(n), nil
}

// Predict returns click probabilities for a batch without updating
// parameters.
func (m *DeepFM) Predict(emb, dense []float32, n int) ([]float32, error) {
	if err := m.checkBatch(emb, dense, n); err != nil {
		return nil, err
	}
	in, nd := m.cfg.Fields*m.cfg.Dim, m.cfg.Dense
	out := make([]float32, n)
	for ex := range out {
		out[ex] = sigmoid(m.forward(emb[ex*in:(ex+1)*in], dense[ex*nd:(ex+1)*nd]))
	}
	return out, nil
}

// Loss computes the mean log loss of predictions against labels without a
// gradient pass.
func (m *DeepFM) Loss(emb, dense, labels []float32) (float64, error) {
	p, err := m.Predict(emb, dense, len(labels))
	if err != nil {
		return 0, err
	}
	var total float64
	for i := range labels {
		total += logLossOne(float64(p[i]), float64(labels[i]))
	}
	return total / float64(len(labels)), nil
}

// Params returns a flat copy of every dense parameter (used by dense
// checkpointing and the trainer's rollback snapshots).
func (m *DeepFM) Params() []float32 {
	return m.AppendParams(make([]float32, 0, m.nParams))
}

// AppendParams appends every dense parameter to dst in Params order and
// returns the extended slice; a dst with room for them is not reallocated
// (the trainer's allreduce reuses one).
func (m *DeepFM) AppendParams(dst []float32) []float32 {
	for _, l := range m.layers {
		dst = append(dst, l.w...)
		dst = append(dst, l.b...)
	}
	dst = append(dst, m.wDense...)
	return append(dst, m.bias)
}

// SetParams overwrites every dense parameter from a flat slice produced by
// Params.
func (m *DeepFM) SetParams(p []float32) error {
	if len(p) != m.nParams {
		return fmt.Errorf("model: SetParams got %d floats, want %d", len(p), m.nParams)
	}
	off := 0
	for li := range m.layers {
		l := &m.layers[li]
		off += copy(l.w, p[off:off+len(l.w)])
		off += copy(l.b, p[off:off+len(l.b)])
		l.transpose()
	}
	off += copy(m.wDense, p[off:off+len(m.wDense)])
	m.bias = p[off]
	return nil
}
