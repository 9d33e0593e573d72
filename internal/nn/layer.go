// Package nn is a from-scratch neural-network substrate: layers (dense,
// conv2d, maxpool, dropout, relu, flatten), softmax cross-entropy loss,
// SGD and RMSprop optimizers, sequential models, and weight (de)serialization.
//
// It stands in for the TensorFlow training stack the TiFL paper runs on each
// client: the FL layers (internal/flcore, internal/tier) only ever see a
// model's flat weight vector and its train/eval entry points, exactly the
// interface a real FL client exposes to the aggregator.
//
// The training hot path is allocation-free at steady state: layers keep
// their activation and gradient buffers across batches (drawn from an
// attached Workspace pool when one is set), so a Forward/Backward result is
// owned by the layer that produced it and is overwritten by the next batch.
// A Model is not safe for concurrent use.
package nn

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"slices"

	"repro/internal/tensor"
)

// Layer is one differentiable stage of a sequential model.
//
// Forward consumes the previous layer's activation; when train is true the
// layer may keep whatever state its Backward pass needs (inputs, masks,
// argmax indices). Backward consumes dLoss/dOutput and returns dLoss/dInput,
// accumulating parameter gradients internally until the optimizer step.
// Returned tensors are layer-owned scratch, valid until the layer's next
// Forward/Backward call.
//
// In-place rule: no layer reads its own output after the next layer's
// Forward has run, nor the gradient it returned after the previous layer's
// Backward has run. A layer may therefore write over its input or over the
// incoming gradient, as ReLU does both; what a Backward needs it keeps
// itself (Dense its input, Conv2D its lowering, MaxPool its argmax,
// Dropout and ReLU their masks; Flatten returns aliases and reads nothing
// later). TestLayersKeepTheInPlaceRule holds every layer kind to it.
type Layer interface {
	Forward(x *tensor.Tensor, train bool) *tensor.Tensor
	Backward(grad *tensor.Tensor) *tensor.Tensor
	// Params returns the layer's trainable tensors (possibly none); Grads
	// returns the matching gradient tensors in the same order.
	Params() []*tensor.Tensor
	Grads() []*tensor.Tensor
}

// Dense is a fully connected layer computing y = x·W + b for a batch of
// row vectors x with shape (batch, in).
type Dense struct {
	W, B   *tensor.Tensor
	dW, dB *tensor.Tensor // allocated by the first backward pass or Grads call
	in     *tensor.Tensor // cached input for backward

	ws      *Workspace
	out, dx *tensor.Tensor // cached scratch, reused across batches
}

// NewDense returns a dense layer with Glorot-uniform weights and zero bias.
func NewDense(rng *rand.Rand, in, out int) *Dense {
	return &Dense{W: tensor.GlorotUniform(rng, in, out, in, out), B: tensor.New(out)}
}

// Forward implements Layer. The bias add is fused into the matmul kernel.
// Because layer scratch is reused across passes, an eval forward invalidates
// any pending backward: it drops the cached training input, so a Backward
// that follows it panics instead of reading clobbered buffers.
func (d *Dense) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	if train {
		d.in = x
	} else {
		d.in = nil
	}
	d.out = d.ws.Ensure(d.out, x.Dim(0), d.W.Dim(1))
	tensor.MatMulBiasInto(d.out, x, d.W, d.B)
	return d.out
}

// Backward implements Layer.
func (d *Dense) Backward(grad *tensor.Tensor) *tensor.Tensor {
	d.backwardParams(grad)
	d.dx = d.ws.Ensure(d.dx, grad.Dim(0), d.W.Dim(0))
	tensor.MatMulABTInto(d.dx, grad, d.W)
	return d.dx
}

// backwardParams computes dW and dB only (no input gradient) — the
// first-layer fast path used by Model.TrainBatch.
func (d *Dense) backwardParams(grad *tensor.Tensor) {
	if d.in == nil {
		panic("nn: Dense.Backward before Forward(train=true)")
	}
	ensureGrads(&d.dW, &d.dB, d.W, d.B)
	tensor.MatMulATBInto(d.dW, d.in, grad)
	tensor.SumRowsInto(d.dB, grad)
}

// Params implements Layer.
func (d *Dense) Params() []*tensor.Tensor { return []*tensor.Tensor{d.W, d.B} }

// Grads implements Layer.
func (d *Dense) Grads() []*tensor.Tensor {
	ensureGrads(&d.dW, &d.dB, d.W, d.B)
	return []*tensor.Tensor{d.dW, d.dB}
}

func (d *Dense) setWorkspace(ws *Workspace) { d.ws = ws }

// ensureGrads allocates a layer's weight and bias gradients on first use,
// so a model that only evaluates (a global model, an evaluation replica)
// holds none.
func ensureGrads(dW, dB **tensor.Tensor, w, b *tensor.Tensor) {
	if *dW == nil {
		*dW, *dB = tensor.New(w.Shape()...), tensor.New(b.Size())
	}
}

// ReLU applies v > 0 ? v : +0 element-wise, so NaN and −0 become +0. It
// works in place, as the Layer rule allows: Forward writes over its input
// and Backward over the incoming gradient. A training Forward keeps a byte
// per element, 1 where the input is > 0, for the Backward. Both directions
// are branch-free.
type ReLU struct {
	trained bool    // last Forward was a training pass (mask is valid)
	keepIn  bool    // the input may be the model's caller's: write out instead (set by NewModel)
	mask    []uint8 // 1 where the last training input was > 0

	ws  *Workspace
	out *tensor.Tensor // keepIn's output
}

// NewReLU returns a ReLU activation layer.
func NewReLU() *ReLU { return &ReLU{} }

// posInfBits is +Inf's bit pattern. A float64 is > 0 exactly when its bits,
// less one, are below it: the sign is clear, the bits are not +0's, and the
// exponent and fraction are at most +Inf's, which excludes NaN.
const posInfBits = 0x7FF0000000000000

// Forward implements Layer. Above shardWork the element range splits
// across cores.
func (r *ReLU) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	out := x
	if r.keepIn {
		r.out = r.ws.Ensure(r.out, x.Shape()...)
		out = r.out
	}
	xd := x.Data
	od := out.Data[:len(xd)]
	if !train {
		if sharded(len(xd)) {
			tensor.ParallelChunks(len(xd), len(xd), func(lo, hi int) { reluForward(od[lo:hi], xd[lo:hi]) })
		} else {
			reluForward(od, xd)
		}
		r.trained = false
		return out
	}
	r.mask = slices.Grow(r.mask[:0], len(xd))[:len(xd)]
	mask := r.mask
	if sharded(len(xd)) {
		tensor.ParallelChunks(len(xd), len(xd), func(lo, hi int) { reluForwardMask(od[lo:hi], xd[lo:hi], mask[lo:hi]) })
	} else {
		reluForwardMask(od, xd, mask)
	}
	r.trained = true
	return out
}

// reluForward writes x's ReLU into od, len(od) = len(x); od may be x.
func reluForward(od, x []float64) {
	od = od[:len(x)]
	for i, v := range x {
		b := math.Float64bits(v)
		var o uint64
		if b-1 < posInfBits {
			o = b
		}
		od[i] = math.Float64frombits(o)
	}
}

// reluForwardMask is reluForward that also sets mask[i] to 1 where x[i] > 0
// and to 0 elsewhere.
func reluForwardMask(od, x []float64, mask []uint8) {
	od, mask = od[:len(x)], mask[:len(x)]
	for i, v := range x {
		b := math.Float64bits(v)
		var o uint64
		if b-1 < posInfBits {
			o = b
		}
		od[i] = math.Float64frombits(o)
		// o is +0 or below 1<<63, so o|−o has the sign bit set exactly
		// when o is not +0.
		mask[i] = uint8((o | -o) >> 63)
	}
}

// Backward implements Layer: g where the input was > 0, +0 elsewhere,
// written over grad. Above shardWork the element range splits across cores.
func (r *ReLU) Backward(grad *tensor.Tensor) *tensor.Tensor {
	if !r.trained {
		panic("nn: ReLU.Backward without a preceding Forward(train=true)")
	}
	gd := grad.Data
	if len(gd) != len(r.mask) {
		panic(fmt.Sprintf("nn: ReLU.Backward gradient %v for a %d-element input", grad.Shape(), len(r.mask)))
	}
	if sharded(len(gd)) {
		tensor.ParallelChunks(len(gd), len(gd), func(lo, hi int) { reluBackward(gd[lo:hi], r.mask[lo:hi]) })
	} else {
		reluBackward(gd, r.mask)
	}
	return grad
}

// reluBackward zeroes g in place where mask is 0; the two have one length.
func reluBackward(g []float64, mask []uint8) {
	mask = mask[:len(g)]
	for i, v := range g {
		g[i] = math.Float64frombits(math.Float64bits(v) & -uint64(mask[i]))
	}
}

// shardWork is the element count from which a layout or element-wise pass
// (ReLU, the NHWC im2col, col2im and max-pool) splits across cores: the
// threshold tensor.ParallelChunks applies, tested before the call so the
// serial path runs its loop directly and builds no closure, which would
// heap-allocate on every batch.
const shardWork = 1 << 17

// sharded reports whether a pass over work elements splits across cores.
func sharded(work int) bool { return work >= shardWork && runtime.GOMAXPROCS(0) > 1 }

// Params implements Layer.
func (r *ReLU) Params() []*tensor.Tensor { return nil }

// Grads implements Layer.
func (r *ReLU) Grads() []*tensor.Tensor { return nil }

func (r *ReLU) setWorkspace(ws *Workspace) { r.ws = ws }

// Dropout zeroes a fraction Rate of activations during training and scales
// the survivors by 1/(1-Rate) (inverted dropout), so inference needs no
// rescaling. The paper's CNNs use 0.25 after pooling and 0.5 before the
// final dense layer. The rescale mask is cached across batches; only its
// contents are redrawn.
type Dropout struct {
	Rate float64
	rng  *rand.Rand
	mask []float64

	ws        *Workspace
	out, gout *tensor.Tensor
}

// NewDropout returns a dropout layer driven by rng; rate must be in [0, 1).
func NewDropout(rng *rand.Rand, rate float64) *Dropout {
	if rate < 0 || rate >= 1 {
		panic(fmt.Sprintf("nn: dropout rate %v outside [0,1)", rate))
	}
	return &Dropout{Rate: rate, rng: rng}
}

// Forward implements Layer.
func (d *Dropout) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	if !train || d.Rate == 0 {
		return x
	}
	d.out = d.ws.Ensure(d.out, x.Shape()...)
	out := d.out
	if cap(d.mask) < len(x.Data) {
		d.mask = make([]float64, len(x.Data))
	}
	d.mask = d.mask[:len(x.Data)]
	keep := 1 - d.Rate
	scale := 1 / keep
	for i, v := range x.Data {
		if d.rng.Float64() < keep {
			d.mask[i] = scale
			out.Data[i] = v * scale
		} else {
			d.mask[i] = 0
			out.Data[i] = 0
		}
	}
	return out
}

// Backward implements Layer.
func (d *Dropout) Backward(grad *tensor.Tensor) *tensor.Tensor {
	if d.Rate == 0 {
		return grad
	}
	d.gout = d.ws.Ensure(d.gout, grad.Shape()...)
	for i, v := range grad.Data {
		d.gout.Data[i] = v * d.mask[i]
	}
	return d.gout
}

// Params implements Layer.
func (d *Dropout) Params() []*tensor.Tensor { return nil }

// Grads implements Layer.
func (d *Dropout) Grads() []*tensor.Tensor { return nil }

func (d *Dropout) setWorkspace(ws *Workspace) { d.ws = ws }

// Flatten reshapes (N, C, H, W) activations to (N, C·H·W) so convolutional
// features can feed dense layers. Both directions are views sharing the
// input's storage; the view headers are cached so steady-state batches
// allocate nothing.
type Flatten struct {
	inShape  []int
	fwdShape []int
	fwd, bwd *tensor.Tensor
}

// NewFlatten returns a flatten layer.
func NewFlatten() *Flatten { return &Flatten{} }

// Forward implements Layer.
func (f *Flatten) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	if train {
		f.inShape = append(f.inShape[:0], x.Shape()...)
	}
	n := x.Dim(0)
	f.fwdShape = append(f.fwdShape[:0], n, x.Size()/n)
	f.fwd = tensor.AliasView(f.fwd, x, f.fwdShape)
	return f.fwd
}

// Backward implements Layer.
func (f *Flatten) Backward(grad *tensor.Tensor) *tensor.Tensor {
	f.bwd = tensor.AliasView(f.bwd, grad, f.inShape)
	return f.bwd
}

// Params implements Layer.
func (f *Flatten) Params() []*tensor.Tensor { return nil }

// Grads implements Layer.
func (f *Flatten) Grads() []*tensor.Tensor { return nil }
