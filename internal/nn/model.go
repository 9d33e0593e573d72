package nn

import (
	"fmt"
	"math"

	"repro/internal/tensor"
)

// Model is a sequential stack of layers trained with softmax cross-entropy.
// It is the unit the FL system replicates: the aggregator owns one global
// Model and clients own structurally identical replicas whose weights are
// overwritten at the start of every round.
//
// Layers must not be modified after the model's first use: the model caches
// its parameter and gradient tensor lists so the per-batch optimizer step
// allocates nothing. A Model is not safe for concurrent use.
type Model struct {
	Layers []Layer

	ws          *Workspace
	lossGrad    *tensor.Tensor   // scratch for the fused softmax-xent gradient
	params      []*tensor.Tensor // cached Params() (stable tensor identities)
	grads       []*tensor.Tensor // cached Grads()
	evalArg     []int            // scratch for Evaluate's per-batch argmax
	evalShp     []int            // scratch for Evaluate's batch shapes
	evalIn      *tensor.Tensor   // view of the samples Evaluate forwards
	evalOut     *tensor.Tensor   // a blocked batch's logits, block by block
	evalBlocked bool             // forward evalBlock samples at a time (set by NewModel)
}

// evalBlock is how many samples Evaluate forwards at once through a model
// that holds a Conv2D: the paper's local batch size B, so eval scratch
// takes the trainers' shapes. A dense-only stack forwards each eval batch
// whole; its activations are a few KB per sample, and smaller products
// run slower.
const evalBlock = 10

// NewModel returns a sequential model over the given layers. It wires the
// activation layout: a Conv2D or MaxPool whose input is an earlier Conv2D's
// output, through element-wise layers only, reads that output as NHWC. A
// ReLU writes over its input only when an earlier Dense, Conv2D or MaxPool
// owns it, never over the caller's samples. A model with a Conv2D
// evaluates in blocks of evalBlock samples.
func NewModel(layers ...Layer) *Model {
	m := &Model{Layers: layers}
	nhwc := false  // the running activation is a Conv2D's NHWC output
	owned := false // the running activation is a layer's buffer, not the caller's
	for _, l := range layers {
		switch l := l.(type) {
		case *Conv2D:
			l.nhwcIn, nhwc, owned = nhwc, true, true
			m.evalBlocked = true
		case *MaxPool:
			l.nhwcIn, nhwc, owned = nhwc, false, true
		case *Dense:
			nhwc, owned = false, true
		case *ReLU:
			l.keepIn, owned = !owned, true // element-wise: the layout passes through
		case *Dropout: // element-wise, and an alias of its input when evaluating
		case *Flatten:
			nhwc = false // an alias of its input
		default:
			nhwc, owned = false, false
		}
	}
	return m
}

// Forward runs the full stack and returns the logits. The returned tensor
// is scratch owned by the final layer, overwritten by the next pass.
func (m *Model) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	for _, l := range m.Layers {
		x = l.Forward(x, train)
	}
	return x
}

// SoftmaxCrossEntropyInto computes the mean cross-entropy loss of logits
// (N, K) against integer labels and writes dLoss/dLogits into grad, without
// allocating, in a single pass over each row (softmax, loss, label
// subtraction, and 1/N scaling while the row is cache-hot). grad must have
// logits' shape. Results are bit-identical to the historical multi-pass
// formulation: per element the operation order is exp → ·1/Σ → (label −1)
// → ·1/N.
func SoftmaxCrossEntropyInto(grad, logits *tensor.Tensor, labels []int) float64 {
	n, k := logits.Dim(0), logits.Dim(1)
	if len(labels) != n {
		panic(fmt.Sprintf("nn: %d labels for %d logits rows", len(labels), n))
	}
	if grad.Dim(0) != n || grad.Dim(1) != k {
		panic(fmt.Sprintf("nn: softmax grad shape %v for logits %v", grad.Shape(), logits.Shape()))
	}
	invN := 1 / float64(n)
	loss := 0.0
	for i := 0; i < n; i++ {
		row := logits.Data[i*k : (i+1)*k]
		grow := grad.Data[i*k : (i+1)*k]
		// log-sum-exp for numerical stability
		maxv := row[0]
		for _, v := range row[1:] {
			if v > maxv {
				maxv = v
			}
		}
		sum := 0.0
		for j, v := range row {
			e := math.Exp(v - maxv)
			grow[j] = e
			sum += e
		}
		inv := 1 / sum
		lbl := labels[i]
		if lbl < 0 || lbl >= k {
			panic(fmt.Sprintf("nn: label %d outside [0,%d)", lbl, k))
		}
		for j := range grow {
			grow[j] *= inv
		}
		loss += -math.Log(math.Max(grow[lbl], 1e-15))
		grow[lbl] -= 1
		for j := range grow {
			grow[j] *= invN
		}
	}
	return loss / float64(n)
}

// paramGradOnly is implemented by layers that can compute their parameter
// gradients without also producing the input gradient. The training loop
// uses it for the first layer of the stack, whose input gradient nobody
// consumes — for Dense that skips a full matmul per batch, for Conv2D a
// matmul plus the col2im scatter.
type paramGradOnly interface {
	backwardParams(grad *tensor.Tensor)
}

// TrainBatch runs one forward/backward pass on a mini-batch and applies one
// optimizer step. It returns the batch's mean loss. At steady state (fixed
// batch shape, warmed-up caches) it performs no heap allocation, and the
// first layer's (unused) input gradient is never computed.
func (m *Model) TrainBatch(x *tensor.Tensor, labels []int, opt Optimizer) float64 {
	logits := m.Forward(x, true)
	m.lossGrad = m.ws.Ensure(m.lossGrad, logits.Dim(0), logits.Dim(1))
	loss := SoftmaxCrossEntropyInto(m.lossGrad, logits, labels)
	grad := m.lossGrad
	for i := len(m.Layers) - 1; i >= 1; i-- {
		grad = m.Layers[i].Backward(grad)
	}
	if len(m.Layers) > 0 {
		if first, ok := m.Layers[0].(paramGradOnly); ok {
			first.backwardParams(grad)
		} else {
			m.Layers[0].Backward(grad)
		}
	}
	opt.Step(m.cachedParams(), m.cachedGrads())
	return loss
}

// Evaluate returns accuracy and mean loss of the model on (x, labels).
// batchSize only groups the loss: the mean is the size-weighted sum of
// each batch's mean cross-entropy (batchSize ≤ 0 means one batch), so it
// moves the loss's last bits, never the accuracy. It does not bound
// memory: a model with a Conv2D forwards evalBlock samples at a time
// whatever the batch, a dense-only one each batch whole. In eval mode
// every layer treats each sample on its own, so the blocks change no bit
// of the logits. At steady state (repeated shapes) it allocates nothing.
func (m *Model) Evaluate(x *tensor.Tensor, labels []int, batchSize int) (acc, loss float64) {
	n := x.Dim(0)
	if n == 0 {
		return 0, 0
	}
	if batchSize <= 0 || batchSize > n {
		batchSize = n
	}
	correct := 0
	totalLoss := 0.0
	m.evalShp = append(m.evalShp[:0], x.Shape()...)
	for lo := 0; lo < n; lo += batchSize {
		hi := min(lo+batchSize, n)
		logits := m.evalForward(x, lo, hi)
		m.lossGrad = m.ws.Ensure(m.lossGrad, logits.Dim(0), logits.Dim(1))
		l := SoftmaxCrossEntropyInto(m.lossGrad, logits, labels[lo:hi])
		totalLoss += l * float64(hi-lo)
		if cap(m.evalArg) < hi-lo {
			m.evalArg = make([]int, hi-lo)
		}
		m.evalArg = m.evalArg[:hi-lo]
		logits.ArgMaxRowsInto(m.evalArg)
		for i, p := range m.evalArg {
			if p == labels[lo+i] {
				correct++
			}
		}
	}
	m.evalIn.Data = nil // keep no reference to the caller's samples
	return float64(correct) / float64(n), totalLoss / float64(n)
}

// evalForward returns the eval-mode logits of samples [lo,hi) of x. On a
// blocked model with more than evalBlock samples, it forwards them
// evalBlock at a time and copies each block's logits into evalOut.
func (m *Model) evalForward(x *tensor.Tensor, lo, hi int) *tensor.Tensor {
	step := hi - lo
	if m.evalBlocked {
		step = min(step, evalBlock)
	}
	if step == hi-lo {
		return m.Forward(m.evalView(x, lo, hi), false)
	}
	for b := lo; b < hi; b += step {
		out := m.Forward(m.evalView(x, b, min(b+step, hi)), false)
		k := out.Dim(1)
		if b == lo {
			m.evalOut = m.ws.Ensure(m.evalOut, hi-lo, k)
		}
		copy(m.evalOut.Data[(b-lo)*k:], out.Data)
	}
	return m.evalOut
}

// evalView points evalIn at samples [lo,hi) of x; evalShp holds x's shape.
func (m *Model) evalView(x *tensor.Tensor, lo, hi int) *tensor.Tensor {
	rest := x.Size() / x.Dim(0)
	m.evalShp[0] = hi - lo
	m.evalIn = tensor.AliasSlice(m.evalIn, x.Data[lo*rest:hi*rest], m.evalShp)
	return m.evalIn
}

// Params returns all trainable tensors across layers in a stable order.
func (m *Model) Params() []*tensor.Tensor {
	var ps []*tensor.Tensor
	for _, l := range m.Layers {
		ps = append(ps, l.Params()...)
	}
	return ps
}

// Grads returns all gradient tensors in the same order as Params.
func (m *Model) Grads() []*tensor.Tensor {
	var gs []*tensor.Tensor
	for _, l := range m.Layers {
		gs = append(gs, l.Grads()...)
	}
	return gs
}

// cachedParams returns the memoized parameter list; tensor identities are
// stable because backward passes write gradients in place.
func (m *Model) cachedParams() []*tensor.Tensor {
	if m.params == nil {
		m.params = m.Params()
	}
	return m.params
}

func (m *Model) cachedGrads() []*tensor.Tensor {
	if m.grads == nil {
		m.grads = m.Grads()
	}
	return m.grads
}

// NumParams returns the total number of trainable scalars, bound or not.
func (m *Model) NumParams() int {
	n := 0
	for _, p := range m.cachedParams() {
		n += paramSize(p)
	}
	return n
}

// paramSize is p's element count by its shape, which an unbound parameter
// keeps.
func paramSize(p *tensor.Tensor) int {
	n := 1
	for _, d := range p.Shape() {
		n *= d
	}
	return n
}

// WeightsVector returns a flat copy of all trainable weights. This is the
// representation exchanged between clients and the aggregator.
func (m *Model) WeightsVector() []float64 {
	w := make([]float64, 0, m.NumParams())
	for _, p := range m.cachedParams() {
		w = append(w, p.Data...)
	}
	return w
}

// BindWeights makes the model's parameters views of w, laid out as
// WeightsVector lays them out: training then updates w in place, with no
// copy in or out. The model views w until UnbindWeights or the next
// BindWeights. It panics unless len(w) is NumParams.
func (m *Model) BindWeights(w []float64) {
	if n := m.NumParams(); len(w) != n {
		panic(fmt.Sprintf("nn: weight vector length %d, model needs %d", len(w), n))
	}
	off := 0
	for _, p := range m.cachedParams() {
		n := paramSize(p)
		p.Data = w[off : off+n : off+n]
		off += n
	}
}

// UnbindWeights drops the model's view of its weights, so it keeps no
// vector alive. Until the next BindWeights the model holds no weights:
// it must not run, and SetWeightsVector panics.
func (m *Model) UnbindWeights() {
	for _, p := range m.cachedParams() {
		p.Data = nil
	}
}

// SetWeightsVector overwrites all trainable weights from a flat vector
// produced by WeightsVector on a structurally identical model.
func (m *Model) SetWeightsVector(w []float64) {
	off := 0
	for _, p := range m.cachedParams() {
		n := p.Size()
		if off+n > len(w) {
			panic(fmt.Sprintf("nn: weight vector too short: have %d, need > %d", len(w), off+n))
		}
		copy(p.Data, w[off:off+n])
		off += n
	}
	if off != len(w) {
		panic(fmt.Sprintf("nn: weight vector length %d, model needs %d", len(w), off))
	}
}
