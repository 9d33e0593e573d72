package nn

import (
	"fmt"
	"math/rand"

	"repro/internal/tensor"
)

// Conv2D is a 2-D convolution over NCHW batches, implemented by lowering
// each batch to a column matrix (im2col) and multiplying against the kernel
// matrix, the standard CPU formulation. The im2col matrix and every
// intermediate are cached scratch reused across batches.
type Conv2D struct {
	InC, OutC     int
	KH, KW        int
	Stride, Pad   int
	W             *tensor.Tensor // (OutC, InC*KH*KW)
	B             *tensor.Tensor // (OutC)
	dW, dB        *tensor.Tensor
	cols          *tensor.Tensor // cached im2col(x) for backward
	inN, inH, inW int
	outH, outW    int
	trained       bool // last Forward was a training pass (cols is valid)

	ws               *Workspace
	flat, out        *tensor.Tensor // forward scratch
	gflat, dcols, dx *tensor.Tensor // backward scratch
}

// NewConv2D returns a convolution layer with Glorot-uniform kernels.
func NewConv2D(rng *rand.Rand, inC, outC, kh, kw, stride, pad int) *Conv2D {
	if stride < 1 {
		panic(fmt.Sprintf("nn: conv stride %d < 1", stride))
	}
	fanIn := inC * kh * kw
	fanOut := outC * kh * kw
	return &Conv2D{
		InC: inC, OutC: outC, KH: kh, KW: kw, Stride: stride, Pad: pad,
		W:  tensor.GlorotUniform(rng, fanIn, fanOut, outC, inC*kh*kw),
		B:  tensor.New(outC),
		dW: tensor.New(outC, inC*kh*kw),
		dB: tensor.New(outC),
	}
}

// Forward implements Layer. The bias add is fused into the matmul kernel's
// final store.
func (c *Conv2D) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	if x.Rank() != 4 || x.Dim(1) != c.InC {
		panic(fmt.Sprintf("nn: Conv2D input %v, want (N,%d,H,W)", x.Shape(), c.InC))
	}
	n, h, w := x.Dim(0), x.Dim(2), x.Dim(3)
	oh := tensor.ConvOutSize(h, c.KH, c.Stride, c.Pad)
	ow := tensor.ConvOutSize(w, c.KW, c.Stride, c.Pad)
	c.cols = c.ws.Ensure(c.cols, n*oh*ow, c.InC*c.KH*c.KW)
	tensor.Im2ColInto(c.cols, x, c.KH, c.KW, c.Stride, c.Pad)
	// The im2col scratch is shared between training and eval passes, so an
	// eval forward invalidates a pending backward (flagged via trained).
	c.trained = train
	if train {
		c.inN, c.inH, c.inW = n, h, w
		c.outH, c.outW = oh, ow
	}
	// (N*OH*OW, OutC) = cols · Wᵀ + b
	c.flat = c.ws.Ensure(c.flat, n*oh*ow, c.OutC)
	tensor.MatMulABTBiasInto(c.flat, c.cols, c.W, c.B)
	c.out = c.ws.Ensure(c.out, n, c.OutC, oh, ow)
	nhwcToNCHWInto(c.out, c.flat, n, oh, ow, c.OutC)
	return c.out
}

// Backward implements Layer.
func (c *Conv2D) Backward(grad *tensor.Tensor) *tensor.Tensor {
	c.backwardParams(grad)
	// dcols = gflat · W → scatter back to image space.
	c.dcols = c.ws.Ensure(c.dcols, c.inN*c.outH*c.outW, c.InC*c.KH*c.KW)
	tensor.MatMulInto(c.dcols, c.gflat, c.W)
	c.dx = c.ws.Ensure(c.dx, c.inN, c.InC, c.inH, c.inW)
	tensor.Col2ImInto(c.dx, c.dcols, c.KH, c.KW, c.Stride, c.Pad)
	return c.dx
}

// backwardParams computes dW and dB only (no input gradient) — the
// first-layer fast path used by Model.TrainBatch, which for a conv layer
// skips a full matmul plus the col2im scatter per batch.
func (c *Conv2D) backwardParams(grad *tensor.Tensor) {
	if c.cols == nil || !c.trained {
		panic("nn: Conv2D.Backward without a preceding Forward(train=true)")
	}
	// grad: (N, OutC, OH, OW) → flat (N*OH*OW, OutC)
	c.gflat = c.ws.Ensure(c.gflat, c.inN*c.outH*c.outW, c.OutC)
	nchwToNHWCInto(c.gflat, grad, c.inN, c.OutC, c.outH, c.outW)
	// dW = gflatᵀ · cols → (OutC, InC*KH*KW)
	tensor.MatMulATBInto(c.dW, c.gflat, c.cols)
	c.dB.Zero()
	for r := 0; r < c.gflat.Dim(0); r++ {
		row := c.gflat.Data[r*c.OutC : (r+1)*c.OutC]
		for j, g := range row {
			c.dB.Data[j] += g
		}
	}
}

// Params implements Layer.
func (c *Conv2D) Params() []*tensor.Tensor { return []*tensor.Tensor{c.W, c.B} }

// Grads implements Layer.
func (c *Conv2D) Grads() []*tensor.Tensor { return []*tensor.Tensor{c.dW, c.dB} }

func (c *Conv2D) setWorkspace(ws *Workspace) { c.ws = ws }

// nhwcToNCHWInto converts a (N*OH*OW, C) activation matrix into the
// (N, C, OH, OW) tensor out, overwriting every element.
func nhwcToNCHWInto(out, flat *tensor.Tensor, n, oh, ow, ch int) {
	i := 0
	for img := 0; img < n; img++ {
		for y := 0; y < oh; y++ {
			for x := 0; x < ow; x++ {
				row := flat.Data[i*ch : (i+1)*ch]
				for cIdx, v := range row {
					out.Data[((img*ch+cIdx)*oh+y)*ow+x] = v
				}
				i++
			}
		}
	}
}

// nchwToNHWCInto converts a (N, C, OH, OW) tensor into the (N*OH*OW, C)
// matrix out, overwriting every element.
func nchwToNHWCInto(out, x *tensor.Tensor, n, ch, oh, ow int) {
	i := 0
	for img := 0; img < n; img++ {
		for y := 0; y < oh; y++ {
			for xx := 0; xx < ow; xx++ {
				row := out.Data[i*ch : (i+1)*ch]
				for cIdx := 0; cIdx < ch; cIdx++ {
					row[cIdx] = x.Data[((img*ch+cIdx)*oh+y)*ow+xx]
				}
				i++
			}
		}
	}
}

// MaxPool is a 2-D max-pooling layer with a square window.
type MaxPool struct {
	Size, Stride int
	arg          []int
	inShape      []int
	trained      bool // last Forward was a training pass (arg is valid)

	ws      *Workspace
	out, dx *tensor.Tensor
}

// NewMaxPool returns a max-pooling layer; the paper's CNNs use 2×2.
func NewMaxPool(size, stride int) *MaxPool {
	return &MaxPool{Size: size, Stride: stride}
}

// Forward implements Layer.
func (m *MaxPool) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	n, c := x.Dim(0), x.Dim(1)
	oh := tensor.ConvOutSize(x.Dim(2), m.Size, m.Stride, 0)
	ow := tensor.ConvOutSize(x.Dim(3), m.Size, m.Stride, 0)
	m.out = m.ws.Ensure(m.out, n, c, oh, ow)
	m.arg = tensor.MaxPool2DInto(m.out, m.arg, x, m.Size, m.Stride)
	// arg is shared between training and eval passes, so an eval forward
	// invalidates a pending backward (flagged via trained).
	m.trained = train
	if train {
		m.inShape = append(m.inShape[:0], x.Shape()...)
	}
	return m.out
}

// Backward implements Layer.
func (m *MaxPool) Backward(grad *tensor.Tensor) *tensor.Tensor {
	if !m.trained {
		panic("nn: MaxPool.Backward without a preceding Forward(train=true)")
	}
	m.dx = m.ws.Ensure(m.dx, m.inShape...)
	tensor.MaxUnpool2DInto(m.dx, grad, m.arg)
	return m.dx
}

// Params implements Layer.
func (m *MaxPool) Params() []*tensor.Tensor { return nil }

// Grads implements Layer.
func (m *MaxPool) Grads() []*tensor.Tensor { return nil }

func (m *MaxPool) setWorkspace(ws *Workspace) { m.ws = ws }
