package nn

import (
	"math"
	"testing"

	"repro/internal/tensor"
)

func TestProximalGradientDirection(t *testing.T) {
	// With zero data gradient, the proximal step moves weights toward ref.
	p := fromSlice([]float64{2}, 1)
	g := tensor.New(1)
	opt := NewProximal(NewSGD(0.1, 0), 1.0, []float64{0})
	opt.Step([]*tensor.Tensor{p}, []*tensor.Tensor{g})
	// grad becomes mu*(2-0)=2; SGD: 2 - 0.1*2 = 1.8
	if math.Abs(p.Data[0]-1.8) > 1e-12 {
		t.Fatalf("proximal step = %v, want 1.8", p.Data[0])
	}
}

func TestProximalNegativeMuPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("negative mu did not panic")
		}
	}()
	NewProximal(NewSGD(0.1, 0), -1, []float64{0})
}

func TestProximalZeroMuIsInner(t *testing.T) {
	p1 := fromSlice([]float64{1}, 1)
	p2 := fromSlice([]float64{1}, 1)
	g := fromSlice([]float64{3}, 1)
	NewSGD(0.1, 0).Step([]*tensor.Tensor{p1}, []*tensor.Tensor{g.Clone()})
	NewProximal(NewSGD(0.1, 0), 0, []float64{99}).Step([]*tensor.Tensor{p2}, []*tensor.Tensor{g.Clone()})
	if p1.Data[0] != p2.Data[0] {
		t.Fatalf("mu=0 proximal %v differs from inner %v", p2.Data[0], p1.Data[0])
	}
}
