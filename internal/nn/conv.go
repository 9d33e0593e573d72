package nn

import (
	"fmt"
	"math"
	"math/rand"
	"slices"

	"repro/internal/tensor"
)

// Conv2D is a 2-D convolution, implemented by lowering each batch to a
// column matrix (im2col) and multiplying against the kernel matrix, the
// standard CPU formulation. The im2col matrix and every intermediate are
// cached scratch reused across batches; the backward pass writes the
// lowering's gradient over the lowering, so a layer holds one.
//
// Its output is NHWC, (N, OH, OW, OutC): the product's (N·OH·OW, OutC)
// matrix itself, not copied. Its input is NCHW, (N, InC, H, W), unless
// NewModel finds an earlier Conv2D feeding it through element-wise layers;
// then it reads that layer's NHWC output. A MaxPool turns the layout back to
// NCHW, so a Flatten after a pool sees the usual order, while one right
// after a conv flattens (h, w, c).
type Conv2D struct {
	InC, OutC     int
	KH, KW        int
	Stride, Pad   int
	W             *tensor.Tensor // (OutC, InC*KH*KW)
	B             *tensor.Tensor // (OutC)
	dW, dB        *tensor.Tensor // allocated by the first backward pass or Grads call
	cols          *tensor.Tensor // cached im2col(x) for backward, then its gradient
	inN, inH, inW int
	outH, outW    int
	trained       bool // last Forward was a training pass (cols is valid)
	nhwcIn        bool // input is an earlier Conv2D's NHWC output (set by NewModel)

	ws         *Workspace
	flat       *tensor.Tensor // forward product, (N·OH·OW, OutC)
	dx         *tensor.Tensor // backward scratch
	out, gflat *tensor.Tensor // views: flat as (N, OH, OW, OutC), grad as (N·OH·OW, OutC)
	shape      []int          // scratch for the view shapes
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
		W: tensor.GlorotUniform(rng, fanIn, fanOut, outC, inC*kh*kw),
		B: tensor.New(outC),
	}
}

// Forward implements Layer. The bias add is fused into the matmul kernel's
// final store.
func (c *Conv2D) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	if x.Rank() != 4 {
		panic(fmt.Sprintf("nn: Conv2D input %v, want rank 4", x.Shape()))
	}
	n, ch, h, w := x.Dim(0), x.Dim(1), x.Dim(2), x.Dim(3)
	if c.nhwcIn {
		h, w, ch = x.Dim(1), x.Dim(2), x.Dim(3)
	}
	oh := tensor.ConvOutSize(h, c.KH, c.Stride, c.Pad)
	ow := tensor.ConvOutSize(w, c.KW, c.Stride, c.Pad)
	if ch != c.InC || oh <= 0 || ow <= 0 {
		panic(fmt.Sprintf("nn: Conv2D input %v, want %d channels and an output (nhwcIn=%v)", x.Shape(), c.InC, c.nhwcIn))
	}
	c.cols = c.ws.Ensure(c.cols, n*oh*ow, c.InC*c.KH*c.KW)
	if c.nhwcIn {
		im2colNHWC(c.cols.Data, x.Data, n, h, w, c.InC, c.KH, c.KW, c.Stride, c.Pad, oh, ow)
	} else {
		tensor.Im2ColInto(c.cols, x, c.KH, c.KW, c.Stride, c.Pad)
	}
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
	c.shape = append(c.shape[:0], n, oh, ow, c.OutC)
	c.out = tensor.AliasView(c.out, c.flat, c.shape)
	return c.out
}

// Backward implements Layer. grad is NHWC, like the output. Once
// backwardParams has read the lowering, dcols = gflat · W goes into its
// storage, so the lowering is no longer valid: a second Backward panics.
func (c *Conv2D) Backward(grad *tensor.Tensor) *tensor.Tensor {
	c.backwardParams(grad)
	// dcols = gflat · W → scatter back to image space.
	dcols := c.cols
	tensor.MatMulInto(dcols, c.gflat, c.W)
	c.trained = false
	if c.nhwcIn {
		c.dx = c.ws.Ensure(c.dx, c.inN, c.inH, c.inW, c.InC)
		col2imNHWC(c.dx.Data, dcols.Data, c.inN, c.inH, c.inW, c.InC, c.KH, c.KW, c.Stride, c.Pad, c.outH, c.outW)
	} else {
		c.dx = c.ws.Ensure(c.dx, c.inN, c.InC, c.inH, c.inW)
		tensor.Col2ImInto(c.dx, dcols, c.KH, c.KW, c.Stride, c.Pad)
	}
	return c.dx
}

// backwardParams computes dW and dB only (no input gradient) — the
// first-layer fast path used by Model.TrainBatch, which for a conv layer
// skips a full matmul plus the col2im scatter per batch.
func (c *Conv2D) backwardParams(grad *tensor.Tensor) {
	if c.cols == nil || !c.trained {
		panic("nn: Conv2D.Backward without a preceding Forward(train=true)")
	}
	// The NHWC gradient is already the (N*OH*OW, OutC) matrix.
	c.shape = append(c.shape[:0], c.inN*c.outH*c.outW, c.OutC)
	c.gflat = tensor.AliasView(c.gflat, grad, c.shape)
	ensureGrads(&c.dW, &c.dB, c.W, c.B)
	// dW = gflatᵀ · cols → (OutC, InC*KH*KW)
	tensor.MatMulATBInto(c.dW, c.gflat, c.cols)
	tensor.SumRowsInto(c.dB, c.gflat)
}

// Params implements Layer.
func (c *Conv2D) Params() []*tensor.Tensor { return []*tensor.Tensor{c.W, c.B} }

// Grads implements Layer.
func (c *Conv2D) Grads() []*tensor.Tensor {
	ensureGrads(&c.dW, &c.dB, c.W, c.B)
	return []*tensor.Tensor{c.dW, c.dB}
}

func (c *Conv2D) setWorkspace(ws *Workspace) { c.ws = ws }

// im2colNHWC lowers the NHWC batch x, (n, h, w, ch), into cols, one row per
// output pixel. A row is in (c, ky, kx) order, as tensor.Im2ColInto builds
// it from NCHW, so each output sums its products in the same order: a tap's
// ch input values, contiguous in x, land kh·kw apart in the row. A tap
// outside the image (pad > 0) writes zeros; the bounds test is per tap,
// not per element. Above shardWork the images split across cores.
func im2colNHWC(cols, x []float64, n, h, w, ch, kh, kw, stride, pad, oh, ow int) {
	if work := n * oh * ow * ch * kh * kw; sharded(work) {
		tensor.ParallelChunks(n, work, func(lo, hi int) { im2colImages(cols, x, lo, hi, h, w, ch, kh, kw, stride, pad, oh, ow) })
		return
	}
	im2colImages(cols, x, 0, n, h, w, ch, kh, kw, stride, pad, oh, ow)
}

// maxTaps is the largest kh·kw whose tap offsets im2colImages and
// col2imImages keep on their stacks (8×8); a larger kernel allocates them
// once per call.
const maxTaps = 64

// tapOffsets returns room for kh·kw tap offsets, on buf when they fit.
func tapOffsets(buf *[maxTaps]int, nt int) []int {
	if nt > maxTaps {
		return make([]int, nt)
	}
	return buf[:nt]
}

// pixelTaps sets taps[t] to the offset in the NHWC batch of the pixel under
// tap t, in (ky, kx) order, of output pixel (oy, ox) of image img, or to -1
// for a tap outside the image.
func pixelTaps(taps []int, img, oy, ox, h, w, ch, kw, stride, pad int) {
	iy, ix0 := oy*stride-pad, ox*stride-pad
	for t := 0; t < len(taps); iy++ {
		for ix := ix0; ix < ix0+kw; ix, t = ix+1, t+1 {
			taps[t] = -1
			if iy >= 0 && iy < h && ix >= 0 && ix < w {
				taps[t] = ((img*h+iy)*w + ix) * ch
			}
		}
	}
}

// im2colImages is im2colNHWC for images [lo,hi). A row is written front to
// back, eight channels at a time: for each tap t, the block's eight values
// of the tap's pixel (zeros outside the image) land in their eight
// (c, ky, kx) slots, so the block's 8·kh·kw slots fill in one sweep.
func im2colImages(cols, x []float64, lo, hi, h, w, ch, kh, kw, stride, pad, oh, ow int) {
	nt := kh * kw
	colW := ch * nt
	var buf [maxTaps]int
	taps := tapOffsets(&buf, nt)
	for img := lo; img < hi; img++ {
		for oy := 0; oy < oh; oy++ {
			for ox := 0; ox < ow; ox++ {
				row := cols[((img*oh+oy)*ow+ox)*colW:][:colW]
				pixelTaps(taps, img, oy, ox, h, w, ch, kw, stride, pad)
				c := 0
				for ; c+8 <= ch; c += 8 {
					d := row[c*nt:][:8*nt]
					for t, off := range taps {
						if off < 0 {
							d[t], d[nt+t], d[2*nt+t], d[3*nt+t] = 0, 0, 0, 0
							d[4*nt+t], d[5*nt+t], d[6*nt+t], d[7*nt+t] = 0, 0, 0, 0
							continue
						}
						s := x[off+c : off+c+8 : off+c+8]
						d[t], d[nt+t], d[2*nt+t], d[3*nt+t] = s[0], s[1], s[2], s[3]
						d[4*nt+t], d[5*nt+t], d[6*nt+t], d[7*nt+t] = s[4], s[5], s[6], s[7]
					}
				}
				for ; c < ch; c++ {
					d := row[c*nt:][:nt]
					for t, off := range taps {
						d[t] = 0
						if off >= 0 {
							d[t] = x[off+c]
						}
					}
				}
			}
		}
	}
}

// col2imNHWC is im2colNHWC's adjoint: it scatters cols into the NHWC
// gradient dx, overwriting it. Pixels are visited in ascending order, so
// each element of dx sums its contributions in the order
// tensor.Col2ImInto sums them on NCHW, bit for bit. An image's
// contributions land in its own slice of dx, so above shardWork the images
// split across cores, each worker clearing and accumulating only its own.
func col2imNHWC(dx, cols []float64, n, h, w, ch, kh, kw, stride, pad, oh, ow int) {
	if work := n * oh * ow * ch * kh * kw; sharded(work) {
		tensor.ParallelChunks(n, work, func(lo, hi int) { col2imImages(dx, cols, lo, hi, h, w, ch, kh, kw, stride, pad, oh, ow) })
		return
	}
	col2imImages(dx, cols, 0, n, h, w, ch, kh, kw, stride, pad, oh, ow)
}

// col2imImages is col2imNHWC for images [lo,hi). A row is read front to
// back, eight channels at a time, as im2colImages writes it: for each tap
// inside the image, the block's eight (c, ky, kx) slots of the tap add
// onto eight channels of its pixel. A pixel's taps land on distinct pixels
// of dx, so each element of dx still gains its terms in ascending output
// pixel order.
func col2imImages(dx, cols []float64, lo, hi, h, w, ch, kh, kw, stride, pad, oh, ow int) {
	clear(dx[lo*h*w*ch : hi*h*w*ch])
	nt := kh * kw
	colW := ch * nt
	var buf [maxTaps]int
	taps := tapOffsets(&buf, nt)
	for img := lo; img < hi; img++ {
		for oy := 0; oy < oh; oy++ {
			for ox := 0; ox < ow; ox++ {
				row := cols[((img*oh+oy)*ow+ox)*colW:][:colW]
				pixelTaps(taps, img, oy, ox, h, w, ch, kw, stride, pad)
				c := 0
				for ; c+8 <= ch; c += 8 {
					s := row[c*nt:][:8*nt]
					for t, off := range taps {
						if off < 0 {
							continue
						}
						d := dx[off+c : off+c+8 : off+c+8]
						d[0] += s[t]
						d[1] += s[nt+t]
						d[2] += s[2*nt+t]
						d[3] += s[3*nt+t]
						d[4] += s[4*nt+t]
						d[5] += s[5*nt+t]
						d[6] += s[6*nt+t]
						d[7] += s[7*nt+t]
					}
				}
				for ; c < ch; c++ {
					s := row[c*nt:][:nt]
					for t, off := range taps {
						if off >= 0 {
							dx[off+c] += s[t]
						}
					}
				}
			}
		}
	}
}

// MaxPool is a 2-D max-pooling layer with a square window. Its output is
// NCHW, (N, C, OH, OW). Its input is NCHW too, unless NewModel finds a
// Conv2D feeding it through element-wise layers; then it reads the conv's
// NHWC output, and the pool is where the activations return to NCHW. The
// reorder sits here, not at a Flatten, because the tensor is 4× smaller
// here and a Dropout after the pool draws its mask in NCHW order.
type MaxPool struct {
	Size, Stride int
	arg          []int
	inShape      []int
	trained      bool // last Forward was a training pass (arg is valid)
	nhwcIn       bool // input is a Conv2D's NHWC output (set by NewModel)

	ws      *Workspace
	out, dx *tensor.Tensor
}

// NewMaxPool returns a max-pooling layer; the paper's CNNs use 2×2.
func NewMaxPool(size, stride int) *MaxPool {
	return &MaxPool{Size: size, Stride: stride}
}

// Forward implements Layer.
func (m *MaxPool) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	if x.Rank() != 4 {
		panic(fmt.Sprintf("nn: MaxPool input %v, want rank 4", x.Shape()))
	}
	n, c, h, w := x.Dim(0), x.Dim(1), x.Dim(2), x.Dim(3)
	if m.nhwcIn {
		h, w, c = x.Dim(1), x.Dim(2), x.Dim(3)
	}
	oh := tensor.ConvOutSize(h, m.Size, m.Stride, 0)
	ow := tensor.ConvOutSize(w, m.Size, m.Stride, 0)
	m.out = m.ws.Ensure(m.out, n, c, oh, ow)
	if m.nhwcIn {
		m.arg = slices.Grow(m.arg[:0], m.out.Size())[:m.out.Size()]
		maxPoolNHWC(m.out.Data, m.arg, x.Data, n, h, w, c, m.Size, m.Stride, oh, ow)
	} else {
		m.arg = tensor.MaxPool2DInto(m.out, m.arg, x, m.Size, m.Stride)
	}
	// arg is shared between training and eval passes, so an eval forward
	// invalidates a pending backward (flagged via trained).
	m.trained = train
	if train {
		m.inShape = append(m.inShape[:0], x.Shape()...)
	}
	return m.out
}

// Backward implements Layer. It returns the gradient in the input's layout:
// the arg indices point into the input.
func (m *MaxPool) Backward(grad *tensor.Tensor) *tensor.Tensor {
	if !m.trained {
		panic("nn: MaxPool.Backward without a preceding Forward(train=true)")
	}
	m.dx = m.ws.Ensure(m.dx, m.inShape...)
	tensor.MaxUnpool2DInto(m.dx, grad, m.arg)
	return m.dx
}

// maxPoolNHWC pools the NHWC batch x, (n, h, w, ch), into the NCHW out,
// recording each output's input index in arg. A window's value is its first
// maximum in (ky, kx) scan order (strict >), as in tensor.MaxPool2DInto, so
// a NaN wins only from the window's first position. The window's first tap
// seeds out and arg; each later tap, one contiguous run of ch values,
// replaces them where it is greater, through a mask rather than a branch.
// Above shardWork the images split across cores.
func maxPoolNHWC(out []float64, arg []int, x []float64, n, h, w, ch, size, stride, oh, ow int) {
	if work := n * oh * ow * ch * size * size; sharded(work) {
		tensor.ParallelChunks(n, work, func(lo, hi int) { maxPoolImages(out, arg, x, lo, hi, h, w, ch, size, stride, oh, ow) })
		return
	}
	maxPoolImages(out, arg, x, 0, n, h, w, ch, size, stride, oh, ow)
}

// maxPoolImages is maxPoolNHWC for images [lo,hi).
func maxPoolImages(out []float64, arg []int, x []float64, lo, hi, h, w, ch, size, stride, oh, ow int) {
	plane := oh * ow
	for img := lo; img < hi; img++ {
		for oy := 0; oy < oh; oy++ {
			for ox := 0; ox < ow; ox++ {
				origin := ((img*h+oy*stride)*w + ox*stride) * ch
				o := img*ch*plane + oy*ow + ox
				for c, v := range x[origin:][:ch] {
					out[o+c*plane], arg[o+c*plane] = v, origin+c
				}
				for t := 1; t < size*size; t++ {
					base := origin + (t/size*w+t%size)*ch
					for c, v := range x[base:][:ch] {
						j := o + c*plane
						var m uint64
						if v > out[j] {
							m = ^uint64(0)
						}
						out[j] = math.Float64frombits(math.Float64bits(out[j])&^m | math.Float64bits(v)&m)
						arg[j] = arg[j]&^int(m) | (base+c)&int(m)
					}
				}
			}
		}
	}
}

// Params implements Layer.
func (m *MaxPool) Params() []*tensor.Tensor { return nil }

// Grads implements Layer.
func (m *MaxPool) Grads() []*tensor.Tensor { return nil }

func (m *MaxPool) setWorkspace(ws *Workspace) { m.ws = ws }
