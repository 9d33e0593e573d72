package nn

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/tensor"
)

// nhwcOf returns the NCHW batch x, (n, c, h, w), reordered to NHWC.
func nhwcOf(x *tensor.Tensor) *tensor.Tensor {
	n, c, h, w := x.Dim(0), x.Dim(1), x.Dim(2), x.Dim(3)
	out := tensor.New(n, h, w, c)
	for img := 0; img < n; img++ {
		for ch := 0; ch < c; ch++ {
			for y := 0; y < h; y++ {
				for xx := 0; xx < w; xx++ {
					out.Data[((img*h+y)*w+xx)*c+ch] = x.Data[((img*c+ch)*h+y)*w+xx]
				}
			}
		}
	}
	return out
}

// naiveConv is the direct convolution of the NCHW batch x, in the rounding
// order Conv2D promises: each output sums its products (c, ky, kx)
// ascending from +0, a padded tap as 0·w, then adds its bias. It returns
// the NHWC output and, for the NHWC gradient g, dW, dB and the NCHW input
// gradient. dW and dB sum over output pixels ascending; dx sums, per
// element, over output pixels ascending, each term being the column
// gradient Σ_oc g·W with oc ascending.
func naiveConv(c *Conv2D, x, g *tensor.Tensor) (out, dW, dB, dx []float64) {
	n, ch, h, w := x.Dim(0), x.Dim(1), x.Dim(2), x.Dim(3)
	oh := tensor.ConvOutSize(h, c.KH, c.Stride, c.Pad)
	ow := tensor.ConvOutSize(w, c.KW, c.Stride, c.Pad)
	colW := ch * c.KH * c.KW
	pixels := n * oh * ow
	// tap returns the input index of (img, ch, iy, ix), or -1 for padding.
	tap := func(p, q int) int {
		img, oy, ox := p/(oh*ow), p/ow%oh, p%ow
		cc, ky, kx := q/(c.KH*c.KW), q/c.KW%c.KH, q%c.KW
		iy, ix := oy*c.Stride-c.Pad+ky, ox*c.Stride-c.Pad+kx
		if iy < 0 || iy >= h || ix < 0 || ix >= w {
			return -1
		}
		return ((img*ch+cc)*h+iy)*w + ix
	}
	out = make([]float64, pixels*c.OutC)
	for p := 0; p < pixels; p++ {
		for oc := 0; oc < c.OutC; oc++ {
			s := 0.0
			for q := 0; q < colW; q++ {
				v := 0.0
				if i := tap(p, q); i >= 0 {
					v = x.Data[i]
				}
				s += v * c.W.Data[oc*colW+q]
			}
			out[p*c.OutC+oc] = s + c.B.Data[oc]
		}
	}
	dW = make([]float64, c.OutC*colW)
	dB = make([]float64, c.OutC)
	for oc := 0; oc < c.OutC; oc++ {
		for q := 0; q < colW; q++ {
			s := 0.0
			for p := 0; p < pixels; p++ {
				v := 0.0
				if i := tap(p, q); i >= 0 {
					v = x.Data[i]
				}
				s += g.Data[p*c.OutC+oc] * v
			}
			dW[oc*colW+q] = s
		}
		for p := 0; p < pixels; p++ {
			dB[oc] += g.Data[p*c.OutC+oc]
		}
	}
	dx = make([]float64, x.Size())
	for p := 0; p < pixels; p++ {
		for q := 0; q < colW; q++ {
			if i := tap(p, q); i >= 0 {
				s := 0.0
				for oc := 0; oc < c.OutC; oc++ {
					s += g.Data[p*c.OutC+oc] * c.W.Data[oc*colW+q]
				}
				dx[i] += s
			}
		}
	}
	return out, dW, dB, dx
}

// Conv2D's forward and backward, from NCHW input and from NHWC input,
// bit for bit against the direct convolution.
func TestConv2DMatchesNaive(t *testing.T) {
	const n, h, w, outC = 2, 7, 6, 3
	for _, ch := range []int{1, 2, 3} {
		for _, stride := range []int{1, 2} {
			for _, pad := range []int{0, 1} {
				for _, nhwc := range []bool{false, true} {
					t.Run(fmt.Sprintf("c%d/s%d/p%d/nhwc=%v", ch, stride, pad, nhwc), func(t *testing.T) {
						rng := rand.New(rand.NewSource(int64(100*ch + 10*stride + pad)))
						c := NewConv2D(rng, ch, outC, 3, 3, stride, pad)
						copy(c.B.Data, tensor.RandNormal(rng, 0, 1, outC).Data)
						c.nhwcIn = nhwc
						x := tensor.RandNormal(rng, 0, 1, n, ch, h, w)
						x.Data[0], x.Data[1] = 0, math.Copysign(0, -1)
						oh := tensor.ConvOutSize(h, 3, stride, pad)
						ow := tensor.ConvOutSize(w, 3, stride, pad)
						g := tensor.RandNormal(rng, 0, 1, n, oh, ow, outC)
						for i := 0; i < g.Size(); i += 4 {
							g.Data[i] = 0 // as after a ReLU
						}
						in := x
						if nhwc {
							in = nhwcOf(x)
						}
						wantOut, wantDW, wantDB, wantDX := naiveConv(c, x, g)

						if nhwc {
							wantDX = nhwcOf(fromSlice(wantDX, x.Shape()...)).Data
						}
						for pass := 0; pass < 2; pass++ { // the second on stale scratch
							got := c.Forward(in, true)
							if s := got.Shape(); len(s) != 4 || s[0] != n || s[1] != oh || s[2] != ow || s[3] != outC {
								t.Fatalf("output shape %v, want [%d %d %d %d]", s, n, oh, ow, outC)
							}
							if !sameBits(got.Data, wantOut) {
								t.Fatal("forward differs from the direct convolution")
							}
							dx := c.Backward(g)
							if !sameBits(c.dW.Data, wantDW) || !sameBits(c.dB.Data, wantDB) {
								t.Fatal("dW or dB differs from the direct convolution")
							}
							if !sameBits(dx.Data, wantDX) {
								t.Fatal("input gradient differs from the direct convolution")
							}
						}
					})
				}
			}
		}
	}
}

// One row per special input: the forward is v > 0 ? v : +0, and the
// backward passes g exactly where the output is > 0, even a NaN g.
func TestReLUSpecialValues(t *testing.T) {
	negZero, negNaN := math.Copysign(0, -1), math.Float64frombits(0xFFF8000000000001)
	sub := math.SmallestNonzeroFloat64
	for _, tc := range []struct {
		name string
		in   float64
		pos  bool
	}{
		{"NaN", math.NaN(), false},
		{"-NaN", negNaN, false},
		{"+0", 0, false},
		{"-0", negZero, false},
		{"+Inf", math.Inf(1), true},
		{"-Inf", math.Inf(-1), false},
		{"+subnormal", sub, true},
		{"-subnormal", -sub, false},
		{"+max", math.MaxFloat64, true},
		{"+1", 1, true},
		{"-1", -1, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			r := NewReLU()
			x := fromSlice([]float64{tc.in, tc.in, tc.in}, 1, 3)
			wantOut, wantG := uint64(0), uint64(0)
			if tc.pos {
				wantOut, wantG = math.Float64bits(tc.in), math.Float64bits(negZero)
			}
			for _, train := range []bool{false, true} {
				if got := math.Float64bits(r.Forward(x, train).Data[1]); got != wantOut {
					t.Fatalf("Forward(train=%v) bits %#x, want %#x", train, got, wantOut)
				}
			}
			g := r.Backward(fromSlice([]float64{math.NaN(), negZero, 5}, 1, 3)).Data
			if math.IsNaN(g[0]) != tc.pos || (!tc.pos && math.Float64bits(g[0]) != 0) {
				t.Fatalf("NaN gradient passed as %v, want NaN only where the output is > 0", g[0])
			}
			if got := math.Float64bits(g[1]); got != wantG {
				t.Fatalf("−0 gradient passed as bits %#x, want %#x", got, wantG)
			}
		})
	}
}

func TestReLUBackwardAfterEvalPanics(t *testing.T) {
	r := NewReLU()
	x := fromSlice([]float64{1, -1}, 1, 2)
	r.Forward(x, true)
	r.Forward(x, false)
	defer func() {
		if recover() == nil {
			t.Fatal("Backward after an eval Forward did not panic")
		}
	}()
	r.Backward(x)
}

// MaxPool on NHWC input: a window's value is its first maximum in (ky, kx)
// scan order with a strict >, written NCHW, and the backward routes the
// gradient to that position in the NHWC input.
func TestMaxPoolNHWCWindows(t *testing.T) {
	nan, negZero := math.NaN(), math.Copysign(0, -1)
	for _, tc := range []struct {
		name    string
		window  [4]float64 // (0,0), (0,1), (1,0), (1,1)
		wantPos int
	}{
		{"distinct", [4]float64{1, 4, 3, 2}, 1},
		{"tie", [4]float64{1, 3, 3, 2}, 1},
		{"all equal", [4]float64{2, 2, 2, 2}, 0},
		{"NaN first", [4]float64{nan, 4, 3, 2}, 0},
		{"NaN later", [4]float64{1, nan, 3, 2}, 2},
		{"-0 before +0", [4]float64{negZero, 0, -1, -2}, 0},
		{"+0 before -0", [4]float64{-1, 0, negZero, -2}, 1},
		{"-Inf", [4]float64{math.Inf(-1), math.Inf(-1), math.Inf(-1), math.Inf(-1)}, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			// One 2×2 image, two channels: channel 1 holds 100…103, so a
			// pool that mixed channels would show.
			x := tensor.New(1, 2, 2, 2)
			for pos, v := range tc.window {
				x.Data[pos*2] = v
				x.Data[pos*2+1] = 100 + float64(pos)
			}
			m := &MaxPool{Size: 2, Stride: 2, nhwcIn: true}
			out := m.Forward(x, true)
			if s := out.Shape(); s[0] != 1 || s[1] != 2 || s[2] != 1 || s[3] != 1 {
				t.Fatalf("output shape %v, want [1 2 1 1]", s)
			}
			if got, want := math.Float64bits(out.Data[0]), math.Float64bits(tc.window[tc.wantPos]); got != want {
				t.Fatalf("pooled bits %#x, want %#x", got, want)
			}
			if out.Data[1] != 103 {
				t.Fatalf("channel 1 pooled %v, want 103", out.Data[1])
			}
			dx := m.Backward(fromSlice([]float64{7, 9}, 1, 2, 1, 1))
			for i, v := range dx.Data {
				want := 0.0
				switch i {
				case tc.wantPos * 2:
					want = 7
				case 3*2 + 1:
					want = 9
				}
				if v != want {
					t.Fatalf("unpooled gradient %v, want 7 at %d and 9 at 7", dx.Data, tc.wantPos*2)
				}
			}
		})
	}
}

// The NHWC pool against the NCHW one on the same values: same output, and
// each arg index names the same input element in the other layout.
func TestMaxPoolNHWCMatchesNCHW(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	const n, c, h, w = 2, 3, 6, 5
	x := tensor.RandNormal(rng, 0, 1, n, c, h, w)
	for i := 0; i < x.Size(); i += 7 {
		x.Data[i] = x.Data[i/2] // ties
	}
	want := tensor.New(n, c, 3, 2)
	wantArg := tensor.MaxPool2DInto(want, nil, x, 2, 2)
	m := &MaxPool{Size: 2, Stride: 2, nhwcIn: true}
	got := m.Forward(nhwcOf(x), false)
	if !sameBits(got.Data, want.Data) {
		t.Fatal("NHWC pool differs from the NCHW pool")
	}
	for o, i := range wantArg {
		img, ch, y, xx := i/(c*h*w), i/(h*w)%c, i/w%h, i%w
		if m.arg[o] != ((img*h+y)*w+xx)*c+ch {
			t.Fatalf("arg[%d] = %d, want the NHWC index of NCHW %d", o, m.arg[o], i)
		}
	}
}

// NewModel tells a Conv2D or MaxPool fed by a conv, through element-wise
// layers only, that its input is NHWC.
func TestNewModelWiresLayout(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	conv := func() Layer { return NewConv2D(rng, 1, 1, 1, 1, 1, 0) }
	pool := func() Layer { return NewMaxPool(2, 2) }
	for _, tc := range []struct {
		name   string
		layers []Layer
		want   []bool // nhwcIn of each conv and pool, in order
	}{
		{"paper", NewPaperMNISTCNN(rng, 8, 8, 1, 10).Layers, []bool{false, true, true}},
		{"conv pool conv pool", []Layer{conv(), pool(), conv(), pool()}, []bool{false, true, false, true}},
		{"pool first", []Layer{pool(), conv(), NewDropout(rng, 0.5), pool()}, []bool{false, false, true}},
		{"flatten between", []Layer{conv(), NewFlatten(), pool()}, []bool{false, false}},
	} {
		var got []bool
		for _, l := range NewModel(tc.layers...).Layers {
			switch l := l.(type) {
			case *Conv2D:
				got = append(got, l.nhwcIn)
			case *MaxPool:
				got = append(got, l.nhwcIn)
			}
		}
		if fmt.Sprint(got) != fmt.Sprint(tc.want) {
			t.Errorf("%s: nhwcIn %v, want %v", tc.name, got, tc.want)
		}
	}
}

// BenchmarkPaperCNNConvForward runs the paper CNN's two convolutions at
// batch 10 on 14×14 input, the benchmark's shapes, and reports useful
// GFLOP/s: 2·N·OH·OW·C·KH·KW·OutC per call, padding and lowering not
// counted. Each layer's ceiling is the "gemm" row: the same a·bᵀ on
// columns already lowered, which is the forward with im2col for free.
func BenchmarkPaperCNNConvForward(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	m := NewPaperMNISTCNN(rng, 14, 14, 1, 10)
	conv1, conv2 := m.Layers[0].(*Conv2D), m.Layers[2].(*Conv2D)
	x1 := tensor.RandNormal(rng, 0, 1, 10, 1, 14, 14)
	x2 := m.Layers[1].Forward(conv1.Forward(x1, false), false)
	for _, l := range []struct {
		name string
		c    *Conv2D
		x    *tensor.Tensor
	}{{"conv1", conv1, x1}, {"conv2", conv2, x2}} {
		out := l.c.Forward(l.x, false)
		flops := 2 * float64(out.Size()*l.c.InC*l.c.KH*l.c.KW)
		report := func(b *testing.B) {
			b.ReportMetric(flops*float64(b.N)/b.Elapsed().Seconds()/1e9, "GFLOP/s")
		}
		b.Run(l.name+"/layer", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				l.c.Forward(l.x, false)
			}
			report(b)
		})
		b.Run(l.name+"/gemm", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				tensor.MatMulABTBiasInto(l.c.flat, l.c.cols, l.c.W, l.c.B)
			}
			report(b)
		})
	}
}
