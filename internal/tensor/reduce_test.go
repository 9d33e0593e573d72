package tensor

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"testing"
)

// The divide and mix kernels against their scalar loops, and MeanSharded's
// tiles against the three serial passes they fuse.

// laneSpecials are the values every lane of the divide and mix kernels
// must treat as the scalar loop does: NaNs (one with a payload of its
// own), infinities, signed zeros and subnormals, beside ordinary values.
var laneSpecials = []float64{
	math.NaN(), math.Float64frombits(0x7FF8_0000_0000_0123), math.Inf(1), math.Inf(-1),
	0, math.Copysign(0, -1), 5e-324, -5e-324, 2.2e-308, -1e-310, 1.5, -3,
}

// onPaths runs f on the scalar loops, then, on a CPU that has them, on the
// kernels, and fails at the first element the two results disagree on, bit
// for bit.
func onPaths(t *testing.T, what string, f func() []float64) {
	t.Helper()
	simd := useSIMD
	defer func() { useSIMD = simd }()
	useSIMD = false
	want := f()
	if !simd {
		return
	}
	useSIMD = true
	got := f()
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s: [%d] = %v (%#x), scalar %v (%#x)", what, i, got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
		}
	}
}

// Every special, in the vector or as the divisor, at every lane position
// of 1–9 values, and the same for both operands of Mix at a ∈ {0, 0.6, 1}.
func TestDivideAndMixSIMDSpecialsAtEveryLane(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for n := 1; n <= 9; n++ {
		g, c := make([]float64, n), make([]float64, n)
		for i := range g {
			g[i], c[i] = rng.NormFloat64(), rng.NormFloat64()
		}
		for i := range n {
			for _, s := range laneSpecials {
				for _, d := range append([]float64{3, 7e-310}, s) {
					onPaths(t, fmt.Sprintf("divide n=%d, [%d] = %v by %v", n, i, s, d), func() []float64 {
						o := append([]float64(nil), g...)
						o[i] = s
						divide(o, d)
						return o
					})
				}
				for _, a := range []float64{0, 0.6, 1} {
					for which := range 2 {
						onPaths(t, fmt.Sprintf("Mix n=%d, operand %d [%d] = %v, a = %v", n, which, i, s, a), func() []float64 {
							o, oc := append([]float64(nil), g...), append([]float64(nil), c...)
							[][]float64{o, oc}[which][i] = s
							Mix(o, oc, a)
							return o
						})
					}
				}
			}
		}
	}
}

// serialMean is FedAvg's reduction as three whole-vector passes: clear,
// the double loop in source order, divide.
func serialMean(n int, coeffs []float64, srcs [][]float64, total float64) []float64 {
	out := make([]float64, n)
	for k, src := range srcs {
		for i, v := range src {
			out[i] = float64(coeffs[k]*v) + out[i]
		}
	}
	for i := range out {
		out[i] /= total
	}
	return out
}

// MeanSharded into a dirty destination equals serialMean bit for bit, at
// lengths around the tile and past the parallel threshold, on both paths
// and at GOMAXPROCS 1 and 2.
func TestMeanShardedBitEqualSerial(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	rng := rand.New(rand.NewSource(42))
	for _, k := range []int{1, 2, 5, 20} {
		for _, n := range []int{1, 3, reduceTile - 1, reduceTile + 1, 250_001} {
			coeffs, srcs, total := make([]float64, k), make([][]float64, k), 0.0
			for j := range srcs {
				coeffs[j] = float64(1 + rng.Intn(100))
				total += coeffs[j]
				srcs[j] = make([]float64, n)
				for i := range srcs[j] {
					srcs[j][i] = rng.NormFloat64()
				}
				srcs[j][rng.Intn(n)] = laneSpecials[rng.Intn(len(laneSpecials))]
			}
			want := serialMean(n, coeffs, srcs, total)
			for _, procs := range []int{1, 2} {
				runtime.GOMAXPROCS(procs)
				onPaths(t, fmt.Sprintf("k=%d n=%d procs=%d", k, n, procs), func() []float64 {
					dst := make([]float64, n)
					for i := range dst {
						dst[i] = 999
					}
					MeanSharded(dst, coeffs, srcs, total)
					for i := range want {
						if math.Float64bits(dst[i]) != math.Float64bits(want[i]) {
							t.Fatalf("k=%d n=%d procs=%d simd=%v: [%d] = %v, serial %v", k, n, procs, useSIMD, i, dst[i], want[i])
						}
					}
					return dst
				})
			}
		}
	}
}

// MeanTiles with every other source filled a tile at a time equals
// serialMean over the filled vectors bit for bit, also when the fill reads
// dst itself — each source's value at i is dst[i] + offsets[k][i], dst's
// dirty value before the call — on both paths and at GOMAXPROCS 1 and 2.
func TestMeanTilesBitEqualSerial(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	rng := rand.New(rand.NewSource(43))
	for _, k := range []int{1, 2, 5} {
		for _, n := range []int{1, 3, reduceTile - 1, reduceTile + 1, 250_001} {
			coeffs, offsets, total := make([]float64, k), make([][]float64, k), 0.0
			dirty := make([]float64, n)
			for i := range dirty {
				dirty[i] = laneSpecials[rng.Intn(len(laneSpecials))]
			}
			vecs := make([][]float64, k) // source k as a vector
			for j := range vecs {
				coeffs[j] = float64(1 + rng.Intn(100))
				total += coeffs[j]
				offsets[j], vecs[j] = make([]float64, n), make([]float64, n)
				for i := range vecs[j] {
					offsets[j][i] = rng.NormFloat64()
					vecs[j][i] = dirty[i] + offsets[j][i]
				}
			}
			want := serialMean(n, coeffs, vecs, total)
			for _, procs := range []int{1, 2} {
				runtime.GOMAXPROCS(procs)
				onPaths(t, fmt.Sprintf("k=%d n=%d procs=%d", k, n, procs), func() []float64 {
					dst := append([]float64(nil), dirty...)
					srcs := make([][]float64, k)
					for j := 1; j < k; j += 2 {
						srcs[j] = vecs[j]
					}
					MeanTiles(dst, coeffs, srcs, func(j int, tile []float64, lo int) {
						for i := range tile {
							tile[i] = dst[lo+i] + offsets[j][lo+i]
						}
					}, total)
					for i := range want {
						if math.Float64bits(dst[i]) != math.Float64bits(want[i]) {
							t.Fatalf("k=%d n=%d procs=%d simd=%v: [%d] = %v, serial %v", k, n, procs, useSIMD, i, dst[i], want[i])
						}
					}
					return dst
				})
			}
		}
	}
}
