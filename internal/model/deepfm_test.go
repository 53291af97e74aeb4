package model

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

func smallConfig() DeepFMConfig {
	return DeepFMConfig{Fields: 3, Dim: 4, Dense: 2, Hidden: []int{8}, LR: 0.05, Seed: 1}
}

func randomBatch(rng *rand.Rand, cfg DeepFMConfig, n int) (emb, dense, labels []float32) {
	emb = make([]float32, n*cfg.Fields*cfg.Dim)
	dense = make([]float32, n*cfg.Dense)
	labels = make([]float32, n)
	for i := range emb {
		emb[i] = float32(rng.NormFloat64()) * 0.5
	}
	for i := range dense {
		dense[i] = float32(rng.NormFloat64())
	}
	for i := range labels {
		if rng.Float64() < 0.4 {
			labels[i] = 1
		}
	}
	return
}

func TestStepShapeValidation(t *testing.T) {
	m := NewDeepFM(smallConfig())
	if _, err := m.Step(make([]float32, 5), make([]float32, 2), make([]float32, 1), make([]float32, 5)); err == nil {
		t.Fatal("bad emb size accepted")
	}
	if _, err := m.Step(make([]float32, 12), make([]float32, 5), make([]float32, 1), make([]float32, 12)); err == nil {
		t.Fatal("bad dense size accepted")
	}
	if _, err := m.Step(make([]float32, 12), make([]float32, 2), make([]float32, 1), make([]float32, 11)); err == nil {
		t.Fatal("bad embGrad size accepted")
	}
	if _, err := m.Predict(make([]float32, 3), make([]float32, 2), 1); err == nil {
		t.Fatal("bad predict size accepted")
	}
}

// TestEmbeddingGradientNumerically verifies the analytic embedding gradient
// against central finite differences of the loss.
func TestEmbeddingGradientNumerically(t *testing.T) {
	cfg := smallConfig()
	rng := rand.New(rand.NewSource(2))
	emb, dense, labels := randomBatch(rng, cfg, 3)

	// Fresh model per loss evaluation (Step mutates parameters; use Loss).
	m := NewDeepFM(cfg)
	grad := make([]float32, len(emb))
	_, err := m.Step(append([]float32(nil), emb...), dense, labels, grad)
	if err != nil {
		t.Fatal(err)
	}
	// Rebuild an identical model for the finite-difference probes.
	probe := NewDeepFM(cfg)

	const h = 1e-3
	checks := []int{0, 5, len(emb) - 1, len(emb) / 2}
	for _, idx := range checks {
		plus := append([]float32(nil), emb...)
		minus := append([]float32(nil), emb...)
		plus[idx] += h
		minus[idx] -= h
		lp, err := probe.Loss(plus, dense, labels)
		if err != nil {
			t.Fatal(err)
		}
		lm, err := probe.Loss(minus, dense, labels)
		if err != nil {
			t.Fatal(err)
		}
		numeric := (lp - lm) / (2 * h)
		analytic := float64(grad[idx])
		if math.Abs(numeric-analytic) > 2e-2*(1+math.Abs(numeric)) {
			t.Fatalf("grad[%d]: analytic %g vs numeric %g", idx, analytic, numeric)
		}
	}
}

// TestTrainingReducesLoss trains the dense part on a fixed batch (with
// fixed embeddings) of *learnable* labels — a linear function of the first
// dense feature — and expects the loss to drop substantially. (Random
// labels would bottom out at their ~0.67 entropy.)
func TestTrainingReducesLoss(t *testing.T) {
	cfg := smallConfig()
	rng := rand.New(rand.NewSource(3))
	emb, dense, labels := randomBatch(rng, cfg, 64)
	for i := range labels {
		labels[i] = 0
		if dense[i*cfg.Dense] > 0 {
			labels[i] = 1
		}
	}
	m := NewDeepFM(cfg)
	grad := make([]float32, len(emb))
	first, err := m.Step(emb, dense, labels, grad)
	if err != nil {
		t.Fatal(err)
	}
	var last float64
	for i := 0; i < 200; i++ {
		last, err = m.Step(emb, dense, labels, grad)
		if err != nil {
			t.Fatal(err)
		}
	}
	if last > first*0.7 {
		t.Fatalf("loss %g -> %g: dense training not converging", first, last)
	}
}

func TestParamsRoundTrip(t *testing.T) {
	m1 := NewDeepFM(smallConfig())
	cfg := smallConfig()
	cfg.Seed = 99 // different init
	m2 := NewDeepFM(cfg)
	if err := m2.SetParams(m1.Params()); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(4))
	emb, dense, _ := randomBatch(rng, smallConfig(), 4)
	p1, err := m1.Predict(emb, dense, 4)
	if err != nil {
		t.Fatal(err)
	}
	p2, err := m2.Predict(emb, dense, 4)
	if err != nil {
		t.Fatal(err)
	}
	for i := range p1 {
		if p1[i] != p2[i] {
			t.Fatalf("predictions diverge after SetParams: %v vs %v", p1, p2)
		}
	}
	if err := m2.SetParams(make([]float32, 3)); err == nil {
		t.Fatal("short param vector accepted")
	}
}

func TestLogLoss(t *testing.T) {
	// Perfect predictions give near-zero loss; inverted give large loss.
	good := LogLoss([]float32{0.999, 0.001}, []float32{1, 0})
	bad := LogLoss([]float32{0.001, 0.999}, []float32{1, 0})
	if good > 0.01 || bad < 3 {
		t.Fatalf("logloss good=%g bad=%g", good, bad)
	}
	if LogLoss(nil, nil) != 0 {
		t.Fatal("empty logloss not 0")
	}
	// Clamping keeps extreme predictions finite.
	if v := LogLoss([]float32{0}, []float32{1}); math.IsInf(v, 0) || math.IsNaN(v) {
		t.Fatalf("unclamped logloss: %v", v)
	}
}

func TestAUC(t *testing.T) {
	if got := AUC([]float32{0.9, 0.8, 0.2, 0.1}, []float32{1, 1, 0, 0}); got != 1 {
		t.Fatalf("perfect AUC = %v", got)
	}
	if got := AUC([]float32{0.1, 0.2, 0.8, 0.9}, []float32{1, 1, 0, 0}); got != 0 {
		t.Fatalf("inverted AUC = %v", got)
	}
	if got := AUC([]float32{0.5, 0.5, 0.5, 0.5}, []float32{1, 0, 1, 0}); got != 0.5 {
		t.Fatalf("all-ties AUC = %v", got)
	}
	if got := AUC([]float32{0.3}, []float32{1}); got != 0.5 {
		t.Fatalf("degenerate AUC = %v", got)
	}
}

func TestAUCRandomIsHalf(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	preds := make([]float32, 5000)
	labels := make([]float32, 5000)
	for i := range preds {
		preds[i] = rng.Float32()
		if rng.Float64() < 0.5 {
			labels[i] = 1
		}
	}
	if got := AUC(preds, labels); math.Abs(got-0.5) > 0.03 {
		t.Fatalf("random AUC = %v, want ~0.5", got)
	}
}

// reference is the DeepFM step as it was before the blocked kernel: one
// output row per pass over the input, one active row per pass in the
// backward, fresh buffers per example. Its bodies are kept verbatim as the
// oracle the kernel must match bit for bit.
type reference struct{ *DeepFM }

// forwardOne runs one example, returning the logit and the activations
// needed for backprop.
type forwardState struct {
	input []float32   // embeddings ++ dense
	acts  [][]float32 // post-ReLU activations per layer (last = linear out)
	fmSum []float32   // sum of field embedding vectors
	fm    float32     // second-order FM term
}

func (m reference) forwardOne(emb, dense []float32) forwardState {
	cfg := m.cfg
	st := forwardState{}

	// FM second order: 0.5 * (||sum_f v_f||^2 - sum_f ||v_f||^2).
	st.fmSum = make([]float32, cfg.Dim)
	var sumSq float32
	for f := 0; f < cfg.Fields; f++ {
		v := emb[f*cfg.Dim : (f+1)*cfg.Dim]
		for d, x := range v {
			st.fmSum[d] += x
			sumSq += x * x
		}
	}
	var normSq float32
	for _, x := range st.fmSum {
		normSq += x * x
	}
	st.fm = 0.5 * (normSq - sumSq)

	// MLP over [embeddings ++ dense].
	st.input = make([]float32, len(emb)+len(dense))
	copy(st.input, emb)
	copy(st.input[len(emb):], dense)
	a := st.input
	for li, l := range m.layers {
		out := make([]float32, l.out)
		for o := 0; o < l.out; o++ {
			s := l.b[o]
			row := l.w[o*l.in : (o+1)*l.in]
			for i, x := range a {
				s += row[i] * x
			}
			if li < len(m.layers)-1 && s < 0 {
				s = 0 // ReLU on hidden layers
			}
			out[o] = s
		}
		st.acts = append(st.acts, out)
		a = out
	}
	return st
}

// logit combines the model terms for one forward state plus the dense
// linear part.
func (m reference) logit(st forwardState, dense []float32) float32 {
	z := m.bias + st.fm + st.acts[len(st.acts)-1][0]
	for i, x := range dense {
		z += m.wDense[i] * x
	}
	return z
}

func (m reference) Step(emb, dense, labels []float32) (float64, []float32, error) {
	cfg := m.cfg
	n := len(labels)
	if len(emb) != n*cfg.Fields*cfg.Dim {
		return 0, nil, fmt.Errorf("model: emb has %d floats, want %d", len(emb), n*cfg.Fields*cfg.Dim)
	}
	if len(dense) != n*cfg.Dense {
		return 0, nil, fmt.Errorf("model: dense has %d floats, want %d", len(dense), n*cfg.Dense)
	}

	embGrad := make([]float32, len(emb))
	// Accumulated dense-parameter gradients (applied after the batch).
	gW := make([][]float32, len(m.layers))
	gB := make([][]float32, len(m.layers))
	for li, l := range m.layers {
		gW[li] = make([]float32, len(l.w))
		gB[li] = make([]float32, len(l.b))
	}
	gDense := make([]float32, cfg.Dense)
	var gBias float32
	var totalLoss float64

	for ex := 0; ex < n; ex++ {
		embEx := emb[ex*cfg.Fields*cfg.Dim : (ex+1)*cfg.Fields*cfg.Dim]
		denseEx := dense[ex*cfg.Dense : (ex+1)*cfg.Dense]
		st := m.forwardOne(embEx, denseEx)
		z := m.logit(st, denseEx)
		p := sigmoid(z)
		y := labels[ex]
		totalLoss += logLossOne(float64(p), float64(y))

		// dLoss/dz for sigmoid + BCE.
		dz := (p - y) / float32(n)
		gBias += dz
		for i, x := range denseEx {
			gDense[i] += dz * x
		}

		// FM second-order gradient: d fm / d v_f = fmSum - v_f.
		gEmbEx := embGrad[ex*cfg.Fields*cfg.Dim : (ex+1)*cfg.Fields*cfg.Dim]
		for f := 0; f < cfg.Fields; f++ {
			v := embEx[f*cfg.Dim : (f+1)*cfg.Dim]
			g := gEmbEx[f*cfg.Dim : (f+1)*cfg.Dim]
			for d := range v {
				g[d] += dz * (st.fmSum[d] - v[d])
			}
		}

		// MLP backprop.
		delta := []float32{dz} // gradient at the (linear) output layer
		for li := len(m.layers) - 1; li >= 0; li-- {
			l := m.layers[li]
			var aPrev []float32
			if li == 0 {
				aPrev = st.input
			} else {
				aPrev = st.acts[li-1]
			}
			next := make([]float32, l.in)
			for o := 0; o < l.out; o++ {
				d := delta[o]
				if d == 0 {
					continue
				}
				row := l.w[o*l.in : (o+1)*l.in]
				gRow := gW[li][o*l.in : (o+1)*l.in]
				for i, x := range aPrev {
					gRow[i] += d * x
					next[i] += d * row[i]
				}
				gB[li][o] += d
			}
			if li > 0 {
				// ReLU gate of the previous layer.
				for i, a := range aPrev {
					if a <= 0 {
						next[i] = 0
					}
				}
			}
			delta = next
		}
		// delta now holds dLoss/dInput; its embedding prefix adds to the
		// embedding gradient.
		for i := 0; i < cfg.Fields*cfg.Dim; i++ {
			gEmbEx[i] += delta[i]
		}
	}

	// Apply SGD to the dense parameters.
	lr := cfg.LR
	for li := range m.layers {
		l := &m.layers[li]
		for i := range l.w {
			l.w[i] -= lr * gW[li][i]
		}
		for i := range l.b {
			l.b[i] -= lr * gB[li][i]
		}
	}
	for i := range m.wDense {
		m.wDense[i] -= lr * gDense[i]
	}
	m.bias -= lr * gBias

	return totalLoss / float64(n), embGrad, nil
}

// trainShape is the end-to-end benchmark's training model: 26 Criteo
// fields of dimension 16, 13 dense features, one hidden layer of 16.
func trainShape() DeepFMConfig {
	return DeepFMConfig{Fields: 26, Dim: 16, Dense: 13, Hidden: []int{16}, LR: 0.05, Seed: 1}
}

// TestStepMatchesReference holds the blocked, allocation-free Step to the
// verbatim reference kernel: over 20 steps the loss, every embedding
// gradient and every dense parameter agree to the bit. The shapes cover the
// benchmark's, the default hidden [64, 32], the small test model, and
// hidden widths that are not a multiple of the block with no dense
// features. Every fifth batch is scaled up until the sigmoid saturates, so
// whole examples backpropagate a zero and hidden rows go dead; the test
// checks that both really happened.
func TestStepMatchesReference(t *testing.T) {
	def := DeepFMConfig{Fields: 26, Dim: 8, Dense: 13, LR: 0.05, Seed: 2}
	odd := DeepFMConfig{Fields: 5, Dim: 3, Hidden: []int{13, 7, 3}, LR: 0.1, Seed: 3}
	for _, tc := range []struct {
		name  string
		cfg   DeepFMConfig
		batch int
	}{
		{"train", trainShape(), 512},
		{"default", def, 64},
		{"small", smallConfig(), 7},
		{"odd", odd, 33},
	} {
		t.Run(tc.name, func(t *testing.T) {
			m := NewDeepFM(tc.cfg)
			ref := reference{NewDeepFM(tc.cfg)}
			rng := rand.New(rand.NewSource(7))
			grad := make([]float32, tc.batch*tc.cfg.Fields*tc.cfg.Dim)
			in, nd := ref.InputFloats(), ref.cfg.Dense
			zeroDz, deadRows := 0, 0
			for step := 0; step < 20; step++ {
				emb, dense, labels := randomBatch(rng, ref.cfg, tc.batch)
				if step%5 == 4 {
					for i := range emb {
						emb[i] *= 40
					}
				}
				for ex := 0; ex < tc.batch; ex++ {
					denseEx := dense[ex*nd : (ex+1)*nd]
					st := ref.forwardOne(emb[ex*in:(ex+1)*in], denseEx)
					if sigmoid(ref.logit(st, denseEx)) == labels[ex] {
						zeroDz++
					}
					for _, a := range st.acts[0] {
						if a == 0 {
							deadRows++
						}
					}
				}
				for i := range grad {
					grad[i] = float32(math.NaN()) // Step must overwrite every float
				}
				loss, err := m.Step(emb, dense, labels, grad)
				if err != nil {
					t.Fatal(err)
				}
				wantLoss, wantGrad, err := ref.Step(emb, dense, labels)
				if err != nil {
					t.Fatal(err)
				}
				if math.Float64bits(loss) != math.Float64bits(wantLoss) {
					t.Fatalf("step %d: loss %v, reference %v", step, loss, wantLoss)
				}
				for i := range grad {
					if math.Float32bits(grad[i]) != math.Float32bits(wantGrad[i]) {
						t.Fatalf("step %d: embGrad[%d] = %v, reference %v", step, i, grad[i], wantGrad[i])
					}
				}
				got, want := m.Params(), ref.Params()
				for i := range want {
					if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
						t.Fatalf("step %d: param %d = %v, reference %v", step, i, got[i], want[i])
					}
				}
			}
			if zeroDz == 0 || deadRows == 0 {
				t.Fatalf("saturated examples %d, dead first-layer rows %d: the run never took the skip path", zeroDz, deadRows)
			}
		})
	}
}

// TestStepZeroAllocs pins the kernel's scratch: after the first call a Step
// allocates nothing (allocfree holds the same claim statically).
func TestStepZeroAllocs(t *testing.T) {
	cfg := trainShape()
	emb, dense, labels := randomBatch(rand.New(rand.NewSource(1)), cfg, 64)
	grad := make([]float32, len(emb))
	m := NewDeepFM(cfg)
	if _, err := m.Step(emb, dense, labels, grad); err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(10, func() {
		if _, err := m.Step(emb, dense, labels, grad); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Fatalf("Step allocates %v objects per call, want 0", n)
	}
}

// BenchmarkDeepFMStep is the training step's dense compute in the end-to-end
// benchmark's shape (train-tcp-fit: 512 samples per worker), the rung under
// train.compute.
func BenchmarkDeepFMStep(b *testing.B) {
	cfg := trainShape()
	emb, dense, labels := randomBatch(rand.New(rand.NewSource(1)), cfg, 512)
	grad := make([]float32, len(emb))
	m := NewDeepFM(cfg)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := m.Step(emb, dense, labels, grad); err != nil {
			b.Fatal(err)
		}
	}
}
