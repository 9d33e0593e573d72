package nn

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"testing"

	"repro/internal/tensor"
)

// The layout and element-wise passes split across cores above shardWork:
// the NHWC im2col, col2im and max-pool by image, ReLU by element range.
// Each output keeps its serial operation sequence, so every table below
// runs a pass at GOMAXPROCS 1 (the serial loop), then at 2, 3 and 8, and
// wants the same bits (im2col and col2im: the bits of the loops they
// replaced, in lowering_test.go). The image counts include 1 (never split) and counts
// no worker count divides. Every row with more than one image is sized to
// reach shardWork, so it does split.

var (
	shardProcs  = []int{2, 3, 8}
	shardImages = []int{1, 3, 7, 10, 50}
)

// atProcs runs f with GOMAXPROCS set to procs.
func atProcs(procs int, f func()) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
	f()
}

// shardSpecials are spliced into the inputs: signed zeros, infinities,
// NaNs of both signs and a subnormal.
var shardSpecials = []float64{
	0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1), math.NaN(),
	math.Float64frombits(0xFFF8000000000001), math.SmallestNonzeroFloat64,
}

// specialSlice returns n normal values with about one in 20 replaced by a
// special.
func specialSlice(rng *rand.Rand, n int) []float64 {
	s := make([]float64, n)
	for i := range s {
		s[i] = rng.NormFloat64()
		if rng.Intn(20) == 0 {
			s[i] = shardSpecials[rng.Intn(len(shardSpecials))]
		}
	}
	return s
}

// channelsToShard is the smallest channel count that makes a pass of
// perChannel elements per channel reach shardWork over n images (any count
// for one image, which is never split).
func channelsToShard(n, perChannel int) int {
	if n == 1 {
		return 3
	}
	return (shardWork + n*perChannel - 1) / (n * perChannel)
}

// convRow is one im2col/col2im geometry: n h×w images of ch channels
// under a k×k kernel.
type convRow struct {
	name                                string
	n, h, w, ch, k, stride, pad, oh, ow int
}

// convRows are the im2col/col2im geometries: 3×3 taps on 16×16 images, pad
// 0/1 × stride 1/2 × shardImages; then on odd 11×9 images, ch ∈ {1, 3, 32,
// 64, 130} (one channel, fewer than a block of eight, conv2's 32, more,
// and blocks with a remainder) × 2×2, 3×3 and 5×5 kernels × stride 1/2 ×
// pad 0/1, each with the fewest images past shardWork plus one.
func convRows() []convRow {
	var rows []convRow
	const side, k = 16, 3
	for _, pad := range []int{0, 1} {
		for _, stride := range []int{1, 2} {
			o := tensor.ConvOutSize(side, k, stride, pad)
			for _, n := range shardImages {
				ch := channelsToShard(n, o*o*k*k)
				rows = append(rows, convRow{fmt.Sprintf("n%d/c%d/stride%d/pad%d", n, ch, stride, pad), n, side, side, ch, k, stride, pad, o, o})
			}
		}
	}
	const h, w = 11, 9
	for _, ch := range []int{1, 3, 32, 64, 130} {
		for _, k := range []int{2, 3, 5} {
			for _, stride := range []int{1, 2} {
				for _, pad := range []int{0, 1} {
					oh, ow := tensor.ConvOutSize(h, k, stride, pad), tensor.ConvOutSize(w, k, stride, pad)
					n := shardWork/(oh*ow*ch*k*k) + 1
					rows = append(rows, convRow{fmt.Sprintf("c%d/k%d/stride%d/pad%d/n%d", ch, k, stride, pad, n), n, h, w, ch, k, stride, pad, oh, ow})
				}
			}
		}
	}
	return rows
}

// At GOMAXPROCS 1, 2, 3 and 8, im2colNHWC writes the bits of the loop it
// replaced (im2colImagesRef), over a column matrix of stale values: a tap
// outside the image must write zeros.
func TestShardedIm2colNHWC(t *testing.T) {
	for _, r := range convRows() {
		t.Run(r.name, func(t *testing.T) {
			x := specialSlice(rand.New(rand.NewSource(int64(r.n*r.ch))), r.n*r.h*r.w*r.ch)
			size := r.n * r.oh * r.ow * r.ch * r.k * r.k
			want := make([]float64, size)
			im2colImagesRef(want, x, 0, r.n, r.h, r.w, r.ch, r.k, r.k, r.stride, r.pad, r.oh, r.ow)
			for _, procs := range append([]int{1}, shardProcs...) {
				out := make([]float64, size)
				for i := range out {
					out[i] = 999
				}
				atProcs(procs, func() { im2colNHWC(out, x, r.n, r.h, r.w, r.ch, r.k, r.k, r.stride, r.pad, r.oh, r.ow) })
				if !sameBits(out, want) {
					t.Fatalf("cols at GOMAXPROCS %d differ from the reference loop's", procs)
				}
			}
		})
	}
}

// At GOMAXPROCS 1, 2, 3 and 8, col2imNHWC writes the bits of the loop it
// replaced (col2imImagesRef), over a gradient of stale values: every
// worker clears its own images.
func TestShardedCol2imNHWC(t *testing.T) {
	for _, r := range convRows() {
		t.Run(r.name, func(t *testing.T) {
			cols := specialSlice(rand.New(rand.NewSource(int64(r.n*r.ch))), r.n*r.oh*r.ow*r.ch*r.k*r.k)
			size := r.n * r.h * r.w * r.ch
			want := make([]float64, size)
			col2imImagesRef(want, cols, 0, r.n, r.h, r.w, r.ch, r.k, r.k, r.stride, r.pad, r.oh, r.ow)
			for _, procs := range append([]int{1}, shardProcs...) {
				out := make([]float64, size)
				for i := range out {
					out[i] = 999
				}
				atProcs(procs, func() { col2imNHWC(out, cols, r.n, r.h, r.w, r.ch, r.k, r.k, r.stride, r.pad, r.oh, r.ow) })
				if !sameBits(out, want) {
					t.Fatalf("dx at GOMAXPROCS %d differs from the reference loop's", procs)
				}
			}
		})
	}
}

// The pool's specials also sit on every image's first and last pixel, so
// each chunk boundary has them on both sides.
func TestShardedMaxPoolNHWC(t *testing.T) {
	const side = 16
	for _, win := range []struct{ size, stride int }{{2, 2}, {3, 1}, {3, 2}} {
		o := tensor.ConvOutSize(side, win.size, win.stride, 0)
		for _, n := range shardImages {
			ch := channelsToShard(n, o*o*win.size*win.size)
			t.Run(fmt.Sprintf("size%d/stride%d/n%d/c%d", win.size, win.stride, n, ch), func(t *testing.T) {
				rng := rand.New(rand.NewSource(int64(n * ch)))
				img := side * side * ch
				x := specialSlice(rng, n*img)
				for i := 0; i < n; i++ {
					for c := 0; c < ch; c++ {
						x[i*img+c] = shardSpecials[(i+c)%len(shardSpecials)]
						x[(i+1)*img-ch+c] = shardSpecials[(i+c+3)%len(shardSpecials)]
					}
				}
				pool := func(procs int) ([]float64, []int) {
					out, arg := make([]float64, n*ch*o*o), make([]int, n*ch*o*o)
					atProcs(procs, func() { maxPoolNHWC(out, arg, x, n, side, side, ch, win.size, win.stride, o, o) })
					return out, arg
				}
				want, wantArg := pool(1)
				for _, procs := range shardProcs {
					got, arg := pool(procs)
					if !sameBits(got, want) || !slices.Equal(arg, wantArg) {
						t.Fatalf("pool at GOMAXPROCS %d differs from the serial loop's", procs)
					}
				}
			})
		}
	}
}

// ReLU splits by element range; the specials sit on both sides of every
// chunk boundary any of shardProcs' worker counts makes. It works in place,
// so each run gets fresh copies.
func TestShardedReLU(t *testing.T) {
	for _, size := range []int{1000, shardWork, shardWork + 1, 3*shardWork + 7} {
		t.Run(fmt.Sprintf("len%d", size), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(size)))
			x, g := specialSlice(rng, size), specialSlice(rng, size)
			s := 0
			for _, procs := range shardProcs {
				chunk := (size + procs - 1) / procs
				for b := chunk; b < size; b += chunk {
					for _, i := range []int{b - 1, b, b + 1} {
						if i < size {
							x[i], g[i] = shardSpecials[s%len(shardSpecials)], shardSpecials[(s+2)%len(shardSpecials)]
							s++
						}
					}
				}
			}
			relu := func(procs int) (out, dx []float64) {
				r := NewReLU()
				xt, gt := fromSlice(slices.Clone(x), 1, size), fromSlice(slices.Clone(g), 1, size)
				atProcs(procs, func() {
					out = append(out, r.Forward(xt, true).Data...)
					dx = append(dx, r.Backward(gt).Data...)
				})
				return out, dx
			}
			wantOut, wantDx := relu(1)
			for _, procs := range shardProcs {
				out, dx := relu(procs)
				if !sameBits(out, wantOut) || !sameBits(dx, wantDx) {
					t.Fatalf("ReLU at GOMAXPROCS %d differs from the serial loop's", procs)
				}
			}
		})
	}
}
