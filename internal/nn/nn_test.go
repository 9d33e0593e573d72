package nn

import (
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/tensor"
)

// fromSlice wraps data, not copied, as a tensor of the given shape.
func fromSlice(data []float64, shape ...int) *tensor.Tensor {
	return tensor.AliasSlice(nil, data, shape)
}

func TestDenseForwardKnown(t *testing.T) {
	d := &Dense{
		W:  fromSlice([]float64{1, 2, 3, 4}, 2, 2),
		B:  fromSlice([]float64{10, 20}, 2),
		dW: tensor.New(2, 2),
		dB: tensor.New(2),
	}
	x := fromSlice([]float64{1, 1}, 1, 2)
	y := d.Forward(x, false)
	if y.Data[0] != 1+3+10 || y.Data[1] != 2+4+20 {
		t.Fatalf("Dense forward = %v", y.Data)
	}
}

func TestReLUForwardBackward(t *testing.T) {
	r := NewReLU()
	x := fromSlice([]float64{-1, 0, 2}, 1, 3)
	y := r.Forward(x, true)
	if y.Data[0] != 0 || y.Data[1] != 0 || y.Data[2] != 2 {
		t.Fatalf("ReLU forward = %v", y.Data)
	}
	g := r.Backward(fromSlice([]float64{5, 5, 5}, 1, 3))
	if g.Data[0] != 0 || g.Data[1] != 0 || g.Data[2] != 5 {
		t.Fatalf("ReLU backward = %v", g.Data)
	}
}

func TestDropoutEvalIsIdentity(t *testing.T) {
	d := NewDropout(rand.New(rand.NewSource(1)), 0.5)
	x := fromSlice([]float64{1, 2, 3, 4}, 1, 4)
	y := d.Forward(x, false)
	if !slices.Equal(y.Data, x.Data) {
		t.Fatal("dropout at eval must be identity")
	}
}

func TestDropoutPreservesExpectation(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	d := NewDropout(rng, 0.25)
	n := 20000
	x := tensor.New(1, n)
	x.Fill(1)
	y := d.Forward(x, true)
	mean := 0.0
	for _, v := range y.Data {
		mean += v / float64(n)
	}
	if math.Abs(mean-1) > 0.03 {
		t.Fatalf("inverted dropout mean = %v, want ≈1", mean)
	}
	zeros := 0
	for _, v := range y.Data {
		if v == 0 {
			zeros++
		}
	}
	frac := float64(zeros) / float64(n)
	if math.Abs(frac-0.25) > 0.03 {
		t.Fatalf("dropped fraction = %v, want ≈0.25", frac)
	}
}

func TestDropoutBadRatePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("dropout rate 1.0 did not panic")
		}
	}()
	NewDropout(rand.New(rand.NewSource(1)), 1.0)
}

func TestFlattenRoundTrip(t *testing.T) {
	f := NewFlatten()
	x := tensor.RandNormal(rand.New(rand.NewSource(3)), 0, 1, 2, 3, 4, 5)
	y := f.Forward(x, true)
	if y.Dim(0) != 2 || y.Dim(1) != 60 {
		t.Fatalf("Flatten shape = %v", y.Shape())
	}
	back := f.Backward(y)
	if !slices.Equal(back.Shape(), x.Shape()) || !slices.Equal(back.Data, x.Data) {
		t.Fatal("Flatten backward must restore shape and values")
	}
}

// softmaxCrossEntropy runs SoftmaxCrossEntropyInto into a fresh gradient.
func softmaxCrossEntropy(logits *tensor.Tensor, labels []int) (float64, *tensor.Tensor) {
	grad := tensor.New(logits.Dim(0), logits.Dim(1))
	return SoftmaxCrossEntropyInto(grad, logits, labels), grad
}

// The gradient SoftmaxCrossEntropyInto writes is (p − onehot)/N, so with
// every label 0 the softmax row p is N·grad plus one in column 0.
func TestSoftmaxRowsSumToOne(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n, k := 1+r.Intn(5), 2+r.Intn(8)
		_, grad := softmaxCrossEntropy(tensor.RandNormal(r, 0, 3, n, k), make([]int, n))
		for i := 0; i < n; i++ {
			s := 0.0
			for j := 0; j < k; j++ {
				v := float64(n) * grad.Data[i*k+j]
				if j == 0 {
					v++
				}
				if v < 0 || v > 1 {
					return false
				}
				s += v
			}
			if math.Abs(s-1) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestSoftmaxCrossEntropyPerfectPrediction(t *testing.T) {
	logits := fromSlice([]float64{100, 0, 0}, 1, 3)
	loss, _ := softmaxCrossEntropy(logits, []int{0})
	if loss > 1e-9 {
		t.Fatalf("loss of confident correct prediction = %v", loss)
	}
}

func TestSoftmaxCrossEntropyGradNumeric(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	logits := tensor.RandNormal(rng, 0, 1, 3, 4)
	labels := []int{1, 3, 0}
	_, grad := softmaxCrossEntropy(logits, labels)
	const h = 1e-6
	for i := range logits.Data {
		orig := logits.Data[i]
		logits.Data[i] = orig + h
		lp, _ := softmaxCrossEntropy(logits, labels)
		logits.Data[i] = orig - h
		lm, _ := softmaxCrossEntropy(logits, labels)
		logits.Data[i] = orig
		num := (lp - lm) / (2 * h)
		if math.Abs(num-grad.Data[i]) > 1e-5 {
			t.Fatalf("grad[%d] = %v, numeric %v", i, grad.Data[i], num)
		}
	}
}

func TestSoftmaxCrossEntropyBadLabelPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-range label did not panic")
		}
	}()
	softmaxCrossEntropy(tensor.New(1, 3), []int{5})
}

// numericalGradCheck verifies model end-to-end backward gradients against
// central differences on every parameter.
func numericalGradCheck(t *testing.T, m *Model, x *tensor.Tensor, labels []int, tol float64) {
	t.Helper()
	logits := m.Forward(x, true)
	_, grad := softmaxCrossEntropy(logits, labels)
	for i := len(m.Layers) - 1; i >= 0; i-- {
		grad = m.Layers[i].Backward(grad)
	}
	params, grads := m.Params(), m.Grads()
	const h = 1e-5
	for pi, p := range params {
		for j := 0; j < p.Size(); j += 1 + p.Size()/17 { // sample indices
			orig := p.Data[j]
			p.Data[j] = orig + h
			lp, _ := softmaxCrossEntropy(m.Forward(x, false), labels)
			p.Data[j] = orig - h
			lm, _ := softmaxCrossEntropy(m.Forward(x, false), labels)
			p.Data[j] = orig
			num := (lp - lm) / (2 * h)
			got := grads[pi].Data[j]
			if math.Abs(num-got) > tol*(1+math.Abs(num)) {
				t.Fatalf("param %d[%d]: analytic %v, numeric %v", pi, j, got, num)
			}
		}
	}
}

func TestDenseMLPGradientCheck(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	m := NewMLP(rng, 4, []int{6}, 3, 0)
	x := tensor.RandNormal(rng, 0, 1, 5, 4)
	numericalGradCheck(t, m, x, []int{0, 1, 2, 1, 0}, 1e-4)
}

func TestConvModelGradientCheck(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	m := NewModel(
		NewConv2D(rng, 1, 2, 3, 3, 1, 1),
		NewReLU(),
		NewMaxPool(2, 2),
		NewFlatten(),
		NewDense(rng, 2*3*3, 3),
	)
	x := tensor.RandNormal(rng, 0, 1, 2, 1, 6, 6)
	numericalGradCheck(t, m, x, []int{0, 2}, 1e-3)
}

func TestModelLearnsToyProblem(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	m := NewMLP(rng, 2, []int{16}, 2, 0)
	// Two Gaussian blobs.
	n := 200
	x := tensor.New(n, 2)
	labels := make([]int, n)
	for i := 0; i < n; i++ {
		c := i % 2
		labels[i] = c
		cx := float64(2*c) - 1
		x.Data[2*i] = cx + 0.3*rng.NormFloat64()
		x.Data[2*i+1] = cx + 0.3*rng.NormFloat64()
	}
	opt := NewSGD(0.1, 0.9)
	for epoch := 0; epoch < 30; epoch++ {
		m.TrainBatch(x, labels, opt)
	}
	acc, _ := m.Evaluate(x, labels, 64)
	if acc < 0.95 {
		t.Fatalf("toy accuracy = %v, want ≥0.95", acc)
	}
}

func TestEvaluateBatchedMatchesWhole(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	m := NewMLP(rng, 3, []int{5}, 4, 0)
	x := tensor.RandNormal(rng, 0, 1, 17, 3)
	labels := make([]int, 17)
	for i := range labels {
		labels[i] = rng.Intn(4)
	}
	a1, l1 := m.Evaluate(x, labels, 0)
	a2, l2 := m.Evaluate(x, labels, 4)
	if a1 != a2 || math.Abs(l1-l2) > 1e-9 {
		t.Fatalf("batched eval (%v,%v) != whole (%v,%v)", a2, l2, a1, l1)
	}
}

func TestWeightsVectorRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	a := NewMLP(rng, 4, []int{8, 8}, 3, 0)
	b := NewMLP(rand.New(rand.NewSource(11)), 4, []int{8, 8}, 3, 0)
	w := a.WeightsVector()
	if len(w) != a.NumParams() {
		t.Fatalf("WeightsVector length %d, NumParams %d", len(w), a.NumParams())
	}
	b.SetWeightsVector(w)
	x := tensor.RandNormal(rng, 0, 1, 3, 4)
	if ya, yb := a.Forward(x, false), b.Forward(x, false); !slices.Equal(ya.Data, yb.Data) {
		t.Fatal("models disagree after weight transfer")
	}
}

func TestSetWeightsVectorLengthMismatchPanics(t *testing.T) {
	m := NewMLP(rand.New(rand.NewSource(12)), 2, nil, 2, 0)
	defer func() {
		if recover() == nil {
			t.Fatal("short weight vector did not panic")
		}
	}()
	m.SetWeightsVector([]float64{1, 2, 3})
}

func TestSGDStepDirection(t *testing.T) {
	p := fromSlice([]float64{1}, 1)
	g := fromSlice([]float64{2}, 1)
	NewSGD(0.5, 0).Step([]*tensor.Tensor{p}, []*tensor.Tensor{g})
	if p.Data[0] != 0 {
		t.Fatalf("SGD step: %v, want 0", p.Data[0])
	}
}

func TestSGDMomentumAccumulates(t *testing.T) {
	p := fromSlice([]float64{0}, 1)
	g := fromSlice([]float64{1}, 1)
	opt := NewSGD(0.1, 0.9)
	opt.Step([]*tensor.Tensor{p}, []*tensor.Tensor{g}) // v=-0.1, p=-0.1
	opt.Step([]*tensor.Tensor{p}, []*tensor.Tensor{g}) // v=-0.19, p=-0.29
	if math.Abs(p.Data[0]+0.29) > 1e-12 {
		t.Fatalf("momentum trajectory = %v, want -0.29", p.Data[0])
	}
}

func TestRMSpropConvergesOnQuadratic(t *testing.T) {
	p := fromSlice([]float64{5}, 1)
	g := tensor.New(1)
	opt := NewRMSprop(0.05, 0)
	for i := 0; i < 500; i++ {
		g.Data[0] = 2 * p.Data[0] // d/dx x² = 2x
		opt.Step([]*tensor.Tensor{p}, []*tensor.Tensor{g})
	}
	if math.Abs(p.Data[0]) > 0.05 {
		t.Fatalf("RMSprop did not converge: x = %v", p.Data[0])
	}
}

func TestBuilderShapes(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	mnist := NewPaperMNISTCNN(rng, 28, 28, 1, 10)
	x := tensor.RandNormal(rng, 0, 1, 2, 1, 28, 28)
	out := mnist.Forward(x, false)
	if out.Dim(0) != 2 || out.Dim(1) != 10 {
		t.Fatalf("MNIST CNN output shape = %v", out.Shape())
	}
}

func TestLogisticBuilder(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	m := NewLogistic(rng, 5, 3)
	if m.NumParams() != 5*3+3 {
		t.Fatalf("logistic params = %d", m.NumParams())
	}
}

func TestEncodeDecodeWeights(t *testing.T) {
	w := []float64{0, 1.5, -2.25, math.Pi}
	got, err := DecodeWeights(EncodeWeights(w))
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range w {
		if got[i] != v {
			t.Fatalf("round trip = %v, want %v", got, w)
		}
	}
}

func TestDecodeWeightsErrors(t *testing.T) {
	if _, err := DecodeWeights([]byte{1, 2}); err == nil {
		t.Fatal("short buffer must error")
	}
	buf := EncodeWeights([]float64{1})
	buf[0] ^= 0xFF
	if _, err := DecodeWeights(buf); err == nil {
		t.Fatal("bad magic must error")
	}
	buf2 := EncodeWeights([]float64{1, 2})
	if _, err := DecodeWeights(buf2[:len(buf2)-1]); err == nil {
		t.Fatal("truncated buffer must error")
	}
}

// Property: encode/decode round-trips arbitrary weight vectors.
func TestEncodeDecodeProperty(t *testing.T) {
	f := func(w []float64) bool {
		got, err := DecodeWeights(EncodeWeights(w))
		if err != nil || len(got) != len(w) {
			return false
		}
		for i := range w {
			if math.Float64bits(got[i]) != math.Float64bits(w[i]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
