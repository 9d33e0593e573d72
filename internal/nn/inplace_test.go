package nn

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/tensor"
)

// inPlaceModels covers every layer kind the builders use: Dense, Conv2D on
// NCHW and NHWC input, ReLU, MaxPool on both layouts, Dropout and Flatten,
// with ReLU after each of them and first in a stack.
var inPlaceModels = []struct {
	name  string
	build func(rng *rand.Rand) *Model
	in    []int // one sample's shape
}{
	{"paper CNN", func(rng *rand.Rand) *Model { return NewPaperMNISTCNN(rng, 10, 10, 1, 4) }, []int{1, 10, 10}},
	{"MLP with dropout", func(rng *rand.Rand) *Model { return NewMLP(rng, 12, []int{16, 8}, 3, 0.5) }, []int{12}},
	{"conv, ReLU, flatten of NHWC", func(rng *rand.Rand) *Model {
		return NewModel(NewConv2D(rng, 2, 3, 3, 3, 1, 1), NewReLU(), NewFlatten(), NewReLU(), NewDense(rng, 3*6*6, 4))
	}, []int{2, 6, 6}},
	{"pool on NCHW input, ReLU first", func(rng *rand.Rand) *Model {
		return NewModel(NewReLU(), NewMaxPool(2, 2), NewReLU(), NewConv2D(rng, 2, 3, 2, 2, 1, 0), NewMaxPool(2, 2), NewFlatten(), NewDense(rng, 3, 2))
	}, []int{2, 6, 6}},
	{"pass-through dropout", func(rng *rand.Rand) *Model {
		return NewModel(NewDense(rng, 5, 7), NewDropout(rng, 0), NewReLU(), NewDropout(rng, 0.25), NewReLU(), NewDense(rng, 7, 3))
	}, []int{5}},
}

// TestLayersKeepTheInPlaceRule holds every layer to Layer's in-place rule:
// no layer reads its own output after the next layer has run, nor the
// gradient it returned after the previous layer's Backward has run. A
// poisoned training step fills each layer's Forward output with NaN just
// before the layer's own Backward (every later layer, any of which could
// have written over it, has run both passes by then) and every returned
// gradient with NaN once the whole backward sweep has consumed it. Its
// gradients and updated weights, over three steps, must equal TrainBatch's
// bit for bit, and the caller's samples must come back unchanged.
func TestLayersKeepTheInPlaceRule(t *testing.T) {
	for _, tc := range inPlaceModels {
		t.Run(tc.name, func(t *testing.T) {
			ref, got := tc.build(rand.New(rand.NewSource(3))), tc.build(rand.New(rand.NewSource(3)))
			refOpt, gotOpt := NewSGD(0.05, 0.9), NewSGD(0.05, 0.9)
			rng := rand.New(rand.NewSource(4))
			for step := range 3 {
				x := tensor.RandNormal(rng, 0, 1, append([]int{5}, tc.in...)...)
				labels := make([]int, 5)
				for i := range labels {
					labels[i] = rng.Intn(2)
				}
				samples := slices.Clone(x.Data)
				ref.TrainBatch(x, labels, refOpt)
				if !sameBits(x.Data, samples) {
					t.Fatalf("step %d: TrainBatch wrote over the caller's samples", step)
				}
				poisonedStep(got, x, labels, gotOpt)
				for i, g := range got.Grads() {
					if !sameBits(g.Data, ref.Grads()[i].Data) {
						t.Fatalf("step %d: gradient %d differs once outputs and returned gradients are poisoned", step, i)
					}
				}
				if !sameBits(got.WeightsVector(), ref.WeightsVector()) {
					t.Fatalf("step %d: weights differ once outputs and returned gradients are poisoned", step)
				}
			}
		})
	}
}

// poisonedStep is TrainBatch with every layer output and returned gradient
// filled with NaN as soon as the in-place rule lets a neighbour write over
// it.
func poisonedStep(m *Model, x *tensor.Tensor, labels []int, opt Optimizer) {
	outs := make([]*tensor.Tensor, len(m.Layers))
	a := x
	for i, l := range m.Layers {
		a = l.Forward(a, true)
		outs[i] = a
	}
	grad := tensor.New(a.Shape()...)
	SoftmaxCrossEntropyInto(grad, a, labels)
	var returned []*tensor.Tensor
	for i := len(m.Layers) - 1; i >= 0; i-- {
		poison(outs[i])
		if first, ok := m.Layers[0].(paramGradOnly); ok && i == 0 {
			first.backwardParams(grad)
			break
		}
		grad = m.Layers[i].Backward(grad)
		returned = append(returned, grad)
	}
	for _, g := range returned {
		poison(g)
	}
	opt.Step(m.Params(), m.Grads())
}

func poison(t *tensor.Tensor) {
	for i := range t.Data {
		t.Data[i] = math.NaN()
	}
}

// A conv layer's backward writes its input gradient's lowering over the
// forward lowering, so a second Backward must panic rather than read it.
func TestConvSecondBackwardPanics(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	c := NewConv2D(rng, 1, 2, 3, 3, 1, 0)
	out := c.Forward(tensor.RandNormal(rng, 0, 1, 2, 1, 5, 5), true)
	g := tensor.RandNormal(rng, 0, 1, out.Shape()...)
	c.Backward(g)
	defer func() {
		if recover() == nil {
			t.Fatal("a second Backward over a spent lowering did not panic")
		}
	}()
	c.Backward(g)
}

// A model that only evaluates holds no gradient buffers; training or
// Grads allocates them.
func TestGradientsOnlyOnTrainedModels(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	m := NewPaperMNISTCNN(rng, 10, 10, 1, 4)
	m.Evaluate(tensor.RandNormal(rng, 0, 1, 3, 1, 10, 10), []int{0, 1, 2}, 0)
	for _, l := range m.Layers {
		switch l := l.(type) {
		case *Dense:
			if l.dW != nil || l.dB != nil {
				t.Fatal("an evaluated Dense holds gradients")
			}
		case *Conv2D:
			if l.dW != nil || l.dB != nil {
				t.Fatal("an evaluated Conv2D holds gradients")
			}
		}
	}
	for i, g := range m.Grads() {
		if p := m.Params()[i]; !slices.Equal(g.Shape(), p.Shape()) {
			t.Fatalf("gradient %d has shape %v for a %v parameter", i, g.Shape(), p.Shape())
		}
	}
}

// TestBindWeightsLengthMismatchPanics: a vector of any other length than
// NumParams is refused.
func TestBindWeightsLengthMismatchPanics(t *testing.T) {
	m := NewMLP(rand.New(rand.NewSource(1)), 4, []int{3}, 2, 0)
	for _, n := range []int{0, m.NumParams() - 1, m.NumParams() + 1} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("BindWeights of %d values on a %d-parameter model did not panic", n, m.NumParams())
				}
			}()
			m.BindWeights(make([]float64, n))
		}()
	}
}

// TestBindWeightsTrainsBitEqual: a model bound to a slot trains in it, bit
// for bit as a model whose weights are copied in and out, and leaves the
// vector it was copied from alone. Unbound, it still counts its parameters,
// refuses a copy, and binds again.
func TestBindWeightsTrainsBitEqual(t *testing.T) {
	for _, tc := range []struct {
		name  string
		build func(rng *rand.Rand) *Model
		in    []int
	}{
		{"paper CNN", func(rng *rand.Rand) *Model { return NewPaperMNISTCNN(rng, 14, 14, 1, 10) }, []int{1, 14, 14}},
		{"MLP", func(rng *rand.Rand) *Model { return NewMLP(rng, 20, []int{32}, 10, 0.5) }, []int{20}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			global := tc.build(rand.New(rand.NewSource(9))).WeightsVector()
			orig := slices.Clone(global)
			copied, bound := tc.build(rand.New(rand.NewSource(5))), tc.build(rand.New(rand.NewSource(5)))
			copied.SetWeightsVector(global)
			slot := slices.Clone(global)
			bound.BindWeights(slot)
			copiedOpt, boundOpt := NewRMSprop(0.003, 0.995), NewRMSprop(0.003, 0.995)
			rng := rand.New(rand.NewSource(6))
			for range 4 {
				x := tensor.RandNormal(rng, 0, 1, append([]int{10}, tc.in...)...)
				labels := make([]int, 10)
				for i := range labels {
					labels[i] = rng.Intn(10)
				}
				copied.TrainBatch(x, labels, copiedOpt)
				bound.TrainBatch(x, labels, boundOpt)
			}
			if want := copied.WeightsVector(); !sameBits(slot, want) {
				t.Fatal("the bound slot differs from the copied model's weights")
			}
			if !sameBits(bound.WeightsVector(), slot) {
				t.Fatal("the bound model does not view its slot")
			}
			if !sameBits(global, orig) {
				t.Fatal("training wrote into the vector the slot was copied from")
			}
			n := bound.NumParams()
			bound.UnbindWeights()
			if bound.NumParams() != n {
				t.Fatalf("an unbound model counts %d parameters, bound %d", bound.NumParams(), n)
			}
			func() {
				defer func() {
					if recover() == nil {
						t.Error("SetWeightsVector on an unbound model did not panic")
					}
				}()
				bound.SetWeightsVector(global)
			}()
			bound.BindWeights(global)
			if !sameBits(bound.WeightsVector(), orig) {
				t.Fatal("a rebound model does not view its new vector")
			}
		})
	}
}
