package nn

import (
	"math/rand"
	"testing"
)

// im2colImagesRef is the loop im2colImages replaced, the reference it is
// held to: tap by tap, each tap's ch input values stored kh·kw apart in
// the (c, ky, kx)-ordered row, a tap outside the image as zeros.
func im2colImagesRef(cols, x []float64, lo, hi, h, w, ch, kh, kw, stride, pad, oh, ow int) {
	taps := kh * kw
	colW := ch * taps
	for img := lo; img < hi; img++ {
		for oy := 0; oy < oh; oy++ {
			for ox := 0; ox < ow; ox++ {
				row := cols[((img*oh+oy)*ow+ox)*colW:][:colW]
				for ky := 0; ky < kh; ky++ {
					iy := oy*stride - pad + ky
					for kx := 0; kx < kw; kx++ {
						ix := ox*stride - pad + kx
						j := ky*kw + kx
						if iy < 0 || iy >= h || ix < 0 || ix >= w {
							for ; j < colW; j += taps {
								row[j] = 0
							}
							continue
						}
						for _, v := range x[((img*h+iy)*w+ix)*ch:][:ch] {
							row[j] = v
							j += taps
						}
					}
				}
			}
		}
	}
}

// col2imImagesRef is the loop col2imImages replaced, the reference it is
// held to: tap by tap, each tap inside the image adds its ch values, kh·kw
// apart in the row, onto its pixel's ch values.
func col2imImagesRef(dx, cols []float64, lo, hi, h, w, ch, kh, kw, stride, pad, oh, ow int) {
	clear(dx[lo*h*w*ch : hi*h*w*ch])
	taps := kh * kw
	colW := ch * taps
	for img := lo; img < hi; img++ {
		for oy := 0; oy < oh; oy++ {
			for ox := 0; ox < ow; ox++ {
				row := cols[((img*oh+oy)*ow+ox)*colW:][:colW]
				for ky := 0; ky < kh; ky++ {
					iy := oy*stride - pad + ky
					for kx := 0; kx < kw; kx++ {
						ix := ox*stride - pad + kx
						if iy < 0 || iy >= h || ix < 0 || ix >= w {
							continue
						}
						j := ky*kw + kx
						dst := dx[((img*h+iy)*w+ix)*ch:][:ch]
						for c := range dst {
							dst[c] += row[j]
							j += taps
						}
					}
				}
			}
		}
	}
}

// BenchmarkPaperCNNLowering times the layout passes around conv2, the
// paper CNN's second convolution, at the benchmark's shapes: batch 10,
// the 12×12×32 NHWC input lowered to 100×288 column rows per image, its
// column gradient scattered back, and the 10×10×64 output pooled to 5×5.
// MB/s counts the larger side of each pass (the column matrix, or the
// pool's input) once; the memmove rows copy as many bytes, the ceiling a
// pass that only moves memory can approach, and the ref rows run the loops
// im2colImages and col2imImages replaced, one core, as -cpu 1 runs all.
func BenchmarkPaperCNNLowering(b *testing.B) {
	const n, side, ch, k, oh = 10, 12, 32, 3, 10
	const outC, po = 64, 5
	rng := rand.New(rand.NewSource(1))
	x := specialSlice(rng, n*side*side*ch)
	cols := specialSlice(rng, n*oh*oh*ch*k*k)
	dx := make([]float64, len(x))
	act := specialSlice(rng, n*oh*oh*outC)
	out, arg := make([]float64, n*outC*po*po), make([]int, n*outC*po*po)
	for _, p := range []struct {
		name     string
		bytes    int
		run, ref func()
	}{
		{"im2col", 8 * len(cols),
			func() { im2colNHWC(cols, x, n, side, side, ch, k, k, 1, 0, oh, oh) },
			func() { im2colImagesRef(cols, x, 0, n, side, side, ch, k, k, 1, 0, oh, oh) }},
		{"col2im", 8 * len(cols),
			func() { col2imNHWC(dx, cols, n, side, side, ch, k, k, 1, 0, oh, oh) },
			func() { col2imImagesRef(dx, cols, 0, n, side, side, ch, k, k, 1, 0, oh, oh) }},
		{"maxpool", 8 * len(act),
			func() { maxPoolNHWC(out, arg, act, n, oh, oh, outC, 2, 2, po, po) }, nil},
	} {
		src, dst := make([]float64, p.bytes/8), make([]float64, p.bytes/8)
		for _, row := range []struct {
			name string
			run  func()
		}{{"", p.run}, {"/ref", p.ref}, {"/memmove", func() { copy(dst, src) }}} {
			if row.run == nil {
				continue
			}
			b.Run(p.name+row.name, func(b *testing.B) {
				b.SetBytes(int64(p.bytes))
				for i := 0; i < b.N; i++ {
					row.run()
				}
			})
		}
	}
}
