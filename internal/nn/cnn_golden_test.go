package nn

import (
	"hash/fnv"
	"math"
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/tensor"
)

// paperCNNGolden holds, per GOARCH, the FNV-64a hash TestPaperCNNGolden
// computes. It pins every bit of the paper CNN's training and evaluation:
// any change to a conv, pool, ReLU or dropout kernel that moves one
// rounding moves it. The two values differ only because the standard
// library's math.Exp (the softmax) is assembly on amd64 and Go on 386, and
// the two round some inputs differently; every kernel of this repository
// is bit-exact across them.
var paperCNNGolden = map[string]uint64{
	"amd64": 0x510c3e7150475d12,
	"386":   0xef99831666046a41,
}

// TestPaperCNNGolden trains a seeded paper CNN for 30 RMSprop steps with
// dropout active, evaluating at batch 4 after each step, and hashes the
// weight bits and the accuracy and loss bits. The hash must not depend on
// the GOAMD64 level (the SIMD kernels are bit-exact with their scalar
// loops, and no path may fuse a multiply-add); the 386 build runs the
// scalar loops alone.
func TestPaperCNNGolden(t *testing.T) {
	want, ok := paperCNNGolden[runtime.GOARCH]
	if !ok {
		t.Skipf("no pinned hash for GOARCH=%s", runtime.GOARCH)
	}
	rng := rand.New(rand.NewSource(36))
	m := NewPaperMNISTCNN(rng, 14, 14, 1, 10)
	m.SetWorkspace(NewWorkspace())
	opt := NewRMSprop(0.003, 0.9)
	const batch, evalN = 8, 10
	x := tensor.RandNormal(rng, 0, 1, batch, 1, 14, 14)
	labels := make([]int, batch)
	evalX := tensor.RandNormal(rng, 0, 1, evalN, 1, 14, 14)
	evalLabels := make([]int, evalN)
	for i := range labels {
		labels[i] = rng.Intn(10)
	}
	for i := range evalLabels {
		evalLabels[i] = rng.Intn(10)
	}

	h := fnv.New64a()
	var buf [8]byte
	put := func(v float64) {
		b := math.Float64bits(v)
		for i := range buf {
			buf[i] = byte(b >> (8 * i))
		}
		h.Write(buf[:])
	}
	for step := 0; step < 30; step++ {
		put(m.TrainBatch(x, labels, opt))
		acc, loss := m.Evaluate(evalX, evalLabels, 4)
		put(acc)
		put(loss)
	}
	for _, w := range m.WeightsVector() {
		put(w)
	}
	if got := h.Sum64(); got != want {
		t.Fatalf("paper CNN hash = %#016x, want %#016x", got, want)
	}
}
