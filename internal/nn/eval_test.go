package nn

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/tensor"
)

// evaluateRef is the Evaluate that blocks replaced, the reference the
// blocked one is held to: each batch of batchSize samples forwarded in one
// piece, its mean loss weighted by its size.
func evaluateRef(m *Model, x *tensor.Tensor, labels []int, batchSize int) (acc, loss float64) {
	n := x.Dim(0)
	if n == 0 {
		return 0, 0
	}
	if batchSize <= 0 || batchSize > n {
		batchSize = n
	}
	correct := 0
	totalLoss := 0.0
	rest := x.Size() / n
	for lo := 0; lo < n; lo += batchSize {
		hi := min(lo+batchSize, n)
		shape := append([]int{hi - lo}, x.Shape()[1:]...)
		logits := m.Forward(fromSlice(x.Data[lo*rest:hi*rest], shape...), false)
		grad := tensor.New(logits.Shape()...)
		totalLoss += SoftmaxCrossEntropyInto(grad, logits, labels[lo:hi]) * float64(hi-lo)
		arg := make([]int, hi-lo)
		logits.ArgMaxRowsInto(arg)
		for i, p := range arg {
			if p == labels[lo+i] {
				correct++
			}
		}
	}
	return float64(correct) / float64(n), totalLoss / float64(n)
}

// sameFloat reports whether a and b have the same bits, or are both NaN.
func sameFloat(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b) || math.IsNaN(a) && math.IsNaN(b)
}

// TestEvaluateBlockedBitEqual holds Evaluate to evaluateRef on the paper
// CNN, which forwards evalBlock samples at a time, and on an MLP, which
// forwards each batch whole: sample counts below, at and past a block,
// batch sizes that split blocks and blocks that split batches, and one CNN
// row whose weights hold ±Inf and NaN. The reference runs at GOMAXPROCS 1;
// Evaluate at 1, 2, 3 and 8, where conv2's im2col and max-pool shard by
// image.
func TestEvaluateBlockedBitEqual(t *testing.T) {
	type model struct {
		name  string
		build func(rng *rand.Rand) *Model
		shape []int // one sample's
	}
	models := []model{
		{"cnn", func(rng *rand.Rand) *Model { return NewPaperMNISTCNN(rng, 14, 14, 1, 10) }, []int{1, 14, 14}},
		{"mlp", func(rng *rand.Rand) *Model { return NewMLP(rng, 24, []int{16}, 10, 0.5) }, []int{24}},
		{"cnn/specials", func(rng *rand.Rand) *Model {
			// A sample whose pooled input 0 (1) is nonzero gets an
			// infinite (NaN) hidden unit 0 (1); one whose hidden unit 2 is
			// nonzero gets a −Inf logit 3. The rest stay finite.
			m := NewPaperMNISTCNN(rng, 14, 14, 1, 10)
			hidden, out := m.Layers[7].(*Dense), m.Layers[10].(*Dense)
			hidden.W.Data[0], hidden.W.Data[hidden.W.Dim(1)+1] = math.Inf(1), math.NaN()
			out.W.Data[2*out.W.Dim(1)+3] = math.Inf(-1)
			return m
		}, []int{1, 14, 14}},
	}
	for _, md := range models {
		for _, n := range []int{1, 9, 10, 11, 17, 50, 100} {
			for _, batch := range []int{0, 4, 10, 16, 64, 100} {
				if md.name == "cnn/specials" && (n != 17 || batch != 0 && batch != 16) {
					continue
				}
				t.Run(fmt.Sprintf("%s/n%d/batch%d", md.name, n, batch), func(t *testing.T) {
					rng := rand.New(rand.NewSource(int64(n*1000 + batch)))
					m := md.build(rng)
					m.SetWorkspace(NewWorkspace())
					x := tensor.RandNormal(rng, 0, 1, append([]int{n}, md.shape...)...)
					labels := make([]int, n)
					for i := range labels {
						labels[i] = rng.Intn(10)
					}
					var wantAcc, wantLoss float64
					atProcs(1, func() { wantAcc, wantLoss = evaluateRef(m, x, labels, batch) })
					for _, procs := range []int{1, 2, 3, 8} {
						var acc, loss float64
						atProcs(procs, func() { acc, loss = m.Evaluate(x, labels, batch) })
						if !sameFloat(acc, wantAcc) || !sameFloat(loss, wantLoss) {
							t.Fatalf("GOMAXPROCS %d: Evaluate = (%v, %v), unblocked reference (%v, %v)", procs, acc, loss, wantAcc, wantLoss)
						}
					}
				})
			}
		}
	}
}
