package tensor

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"strings"
	"sync"
	"testing"
)

// path is one way through the products: the scalar loops, the AVX2
// kernels, or the AVX2 kernels with their AVX-512 twins taking the whole
// 4-row groups of a·bᵀ and the whole 64-column blocks of a·b and aᵀ·b rows.
type path struct {
	name         string
	simd, avx512 bool
}

var paths = []path{{"scalar", false, false}, {"avx2", true, false}, {"avx512", true, true}}

// cpuSIMD and cpuAVX512 are the switches as the CPU set them, before any
// test flips them.
var cpuSIMD, cpuAVX512 = useSIMD, useAVX512

// cpuPaths returns the paths this CPU has, scalar first, and logs each it
// lacks.
func cpuPaths(t testing.TB) []path {
	t.Helper()
	switch {
	case !cpuSIMD:
		t.Log("no AVX2 kernels here (no AVX2, or not amd64): testing the scalar path alone")
		return paths[:1]
	case !cpuAVX512:
		t.Log("no AVX-512 on this CPU: testing the scalar and AVX2 paths, not the AVX-512 one")
		return paths[:2]
	}
	return paths
}

// TestSIMDPathsOnThisCPU names the paths the bit-equality tests compare
// on this CPU (CI prints it with -v, so a run shows whether the AVX-512
// kernels were tested).
func TestSIMDPathsOnThisCPU(t *testing.T) {
	if cpuAVX512 && !cpuSIMD {
		t.Fatal("useAVX512 is set without useSIMD")
	}
	var names []string
	for _, p := range cpuPaths(t) {
		names = append(names, p.name)
	}
	t.Logf("kernel paths compared on this CPU: %s", strings.Join(names, ", "))
}

// onEveryPath computes product's m×n result on every path the CPU has,
// each into a destination of stale values, and fails unless every path
// matches the scalar one (mustSameResult). It returns the results, scalar
// first.
func onEveryPath(t *testing.T, what string, m, n int, product func(dst *Tensor)) []*Tensor {
	t.Helper()
	defer func() { useSIMD, useAVX512 = cpuSIMD, cpuAVX512 }()
	var outs []*Tensor
	for i, p := range cpuPaths(t) {
		useSIMD, useAVX512 = p.simd, p.avx512
		outs = append(outs, full([]float64{999, -999, 777}[i], m, n))
		product(outs[i])
		if i > 0 {
			mustSameResult(t, what+" on "+p.name, outs[i], outs[0])
		}
	}
	return outs
}

// abtOnEveryPath checks a·bᵀ (+bias) on every path.
func abtOnEveryPath(t *testing.T, a, b, bias *Tensor) []*Tensor {
	t.Helper()
	return onEveryPath(t, "abt", a.Dim(0), b.Dim(0), func(dst *Tensor) { matMulABTBiasInto(dst, a, b, bias, "abt") })
}

// abOnEveryPath checks a·b (+bias) on every path.
func abOnEveryPath(t *testing.T, a, b, bias *Tensor) []*Tensor {
	t.Helper()
	return onEveryPath(t, "ab", a.Dim(0), b.Dim(1), func(dst *Tensor) { matMulBiasInto(dst, a, b, bias, "ab") })
}

// atbOnEveryPath checks aᵀ·b on every path.
func atbOnEveryPath(t *testing.T, a, b *Tensor) []*Tensor {
	t.Helper()
	return onEveryPath(t, "atb", a.Dim(1), b.Dim(1), func(dst *Tensor) { MatMulATBInto(dst, a, b) })
}

// mustSameResult compares bit patterns, except that a NaN only has to meet
// a NaN: which operand's payload an x86 add propagates depends on operand
// order, which the compiler picks for the scalar loop.
func mustSameResult(t *testing.T, name string, got, want *Tensor) {
	t.Helper()
	for i, w := range want.Data {
		g := got.Data[i]
		if math.IsNaN(w) && math.IsNaN(g) {
			continue
		}
		if math.Float64bits(g) != math.Float64bits(w) {
			t.Fatalf("%s[%d] = %v (%#x), scalar %v (%#x)", name, i, g, math.Float64bits(g), w, math.Float64bits(w))
		}
	}
}

// specials are spliced into the random operands: signed zeros, subnormals,
// infinities and NaN.
var specials = []float64{0, math.Copysign(0, -1), 5e-324, -2.2250738585072e-308, math.Inf(1), math.Inf(-1), math.NaN()}

func randSpecialTensor(rng *rand.Rand, shape ...int) *Tensor {
	t := randTensor(rng, shape...)
	for i := range t.Data {
		if rng.Intn(50) == 0 {
			t.Data[i] = specials[rng.Intn(len(specials))]
		}
	}
	return t
}

// withZeros sets each element of t to +0 with probability frac and
// returns t: the left operands of a·b and aᵀ·b are ReLU and max-pool
// outputs and gradients, whose zero products the loops skip.
func withZeros(rng *rand.Rand, frac float64, t *Tensor) *Tensor {
	for i := range t.Data {
		if rng.Float64() < frac {
			t.Data[i] = 0
		}
	}
	return t
}

// zeroDensities are the left-operand zero fractions every a·b and aᵀ·b
// shape runs at: no skips, the workloads' ~70 %, conv2's output gradient's
// ~95 %, and every product skipped.
var zeroDensities = []float64{0, 0.7, 0.95, 1}

// tailNs are output widths with no whole 4-lane group (n < 4), every
// len%4 tail, several groups before a tail, and both sides of the a·b and
// aᵀ·b kernel's 16- and 32-column blocks and of its masked tail.
var tailNs = []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 15, 16, 17, 31, 32, 33, 47, 48}

// zmmNs are output widths on both sides of the AVX-512 kernels' edges:
// one and several 16-column a·bᵀ blocks, and a·b and aᵀ·b rows short of
// one 64-column block, at one, one and a lane, two, and four and an AVX2
// remainder of 32.
var zmmNs = []int{16, 32, 48, 63, 64, 65, 128, 288}

// zmmCases returns one m×k·k×n case per m in 1–9 (no, one and two whole
// 4-row groups, each with every count of leftover rows), n in zmmNs and k
// in ks.
func zmmCases(ks ...int) []gemmCase {
	var cs []gemmCase
	for _, k := range ks {
		for _, n := range zmmNs {
			for m := 1; m <= 9; m++ {
				cs = append(cs, gemmCase{fmt.Sprintf("m%d_k%d_n%d", m, k, n), m, k, n})
			}
		}
	}
	return cs
}

func TestMatMulABTSIMDBitEqualScalar(t *testing.T) {
	for _, tc := range append([]gemmCase{
		{"conv1", 1440, 9, 32},
		{"conv2", 1000, 288, 64},
		{"dense_dx", 10, 128, 1600},
		{"odd_m", 37, 20, 48},
		{"m1", 1, 50, 32},
		{"k1", 9, 1, 16},
		{"tail17", 5, 13, 17},
		{"tail31", 6, 7, 31},
	}, zmmCases(13)...) {
		for _, withBias := range []bool{false, true} {
			name := tc.name
			if withBias {
				name += "/bias"
			}
			t.Run(name, func(t *testing.T) {
				rng := rand.New(rand.NewSource(int64(tc.m*tc.k + tc.n)))
				a, b := randSpecialTensor(rng, tc.m, tc.k), randSpecialTensor(rng, tc.n, tc.k)
				var bias *Tensor
				if withBias {
					bias = randSpecialTensor(rng, tc.n)
				}
				abtOnEveryPath(t, a, b, bias)
			})
		}
	}
}

type gemmCase struct {
	name    string
	m, k, n int
}

// abShapes are the workloads' a·b products (m×k times k×n): the CNN's
// conv2 input gradient and dense forward, and the 256→128→10 and the
// FedAT 48→32→10 MLPs' two forwards at batch 10.
var abShapes = []gemmCase{
	{"conv2_dcols", 1000, 64, 288},
	{"dense_fwd", 10, 1600, 128},
	{"mlp_hidden", 10, 256, 128},
	{"mlp_out", 10, 128, 10},
	{"fedat_hidden", 10, 48, 32},
	{"fedat_out", 10, 32, 10},
}

// atbShapes are the workloads' aᵀ·b products (k×m transposed times k×n):
// the weight gradients of both convs, the CNN's dense layer and both
// layers of both MLPs.
var atbShapes = []gemmCase{
	{"conv2_dW", 64, 1000, 288},
	{"conv1_dW", 32, 1440, 9},
	{"dense_dW", 1600, 10, 128},
	{"mlp_hidden_dW", 256, 10, 128},
	{"mlp_out_dW", 128, 10, 10},
	{"fedat_hidden_dW", 48, 10, 32},
	{"fedat_out_dW", 32, 10, 10},
}

// tailCases returns one m×k·k×n case per n in tailNs, then extra.
func tailCases(m, k int, extra ...gemmCase) []gemmCase {
	var cs []gemmCase
	for _, n := range tailNs {
		cs = append(cs, gemmCase{fmt.Sprintf("n%d", n), m, k, n})
	}
	return append(cs, extra...)
}

func TestMatMulABSIMDBitEqualScalar(t *testing.T) {
	check := func(tc gemmCase, zeros float64, withBias bool) {
		name := fmt.Sprintf("%s/zeros%.0f%%", tc.name, 100*zeros)
		if !withBias {
			name += "/nobias"
		}
		t.Run(name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(tc.m*tc.k + tc.n)))
			a := withZeros(rng, zeros, randSpecialTensor(rng, tc.m, tc.k))
			b, bias := randSpecialTensor(rng, tc.k, tc.n), randTensor(rng, tc.n)
			if !withBias {
				bias = nil
			}
			abOnEveryPath(t, a, b, bias)
		})
	}
	// Odd m leaves matMulRows an unpaired last row. One row past a p-tile
	// leaves nzRows a last tile of one step, which adds the bias.
	for _, tc := range tailCases(5, 6, append(abShapes, gemmCase{"odd_m", 37, 20, 48}, gemmCase{"m1", 1, 50, 32},
		gemmCase{"tile_plus1", 5, nzTile + 1, 33})...) {
		for _, zeros := range zeroDensities {
			check(tc, zeros, true)
		}
	}
	// The AVX-512 edges at the workloads' zeros, within one p-tile and past
	// it (every row resumes from its stored sums), with and without a bias.
	for _, tc := range zmmCases(6, nzTile+3) {
		check(tc, 0.7, false)
		check(tc, 0.7, true)
	}
}

func TestMatMulATBSIMDBitEqualScalar(t *testing.T) {
	check := func(tc gemmCase, zeros float64) {
		t.Run(fmt.Sprintf("%s/zeros%.0f%%", tc.name, 100*zeros), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(tc.m*tc.k + tc.n)))
			a := withZeros(rng, zeros, randSpecialTensor(rng, tc.k, tc.m))
			b := randSpecialTensor(rng, tc.k, tc.n)
			atbOnEveryPath(t, a, b)
		})
	}
	// Odd k leaves matMulATBRows an unpaired last step. k = 1000 walks
	// nzRows' p-tiles with a partial last one, and one row past a p-tile
	// leaves it a last tile of one step.
	for _, tc := range tailCases(6, 7, append(atbShapes, gemmCase{"odd_k", 12, 37, 48}, gemmCase{"k1", 9, 1, 16},
		gemmCase{"k1000", 7, 1000, 33}, gemmCase{"tile_plus1", 5, nzTile + 1, 10})...) {
		for _, zeros := range zeroDensities {
			check(tc, zeros)
		}
	}
	// The AVX-512 edges at the workloads' zeros, within one p-tile and past
	// it.
	for _, tc := range zmmCases(7, nzTile+3) {
		check(tc, 0.7)
	}
}

// Every special (±0, subnormals, ±Inf, NaN) at every lane of every path,
// one kind at a time so a NaN does not hide the rest: in b at one step per output column
// (in the second p-tile for some columns of a·b and aᵀ·b, which then
// resume from their stored sums), in all of b, in all of the left operand
// (a sum of ±0 products only, which must start from +0), and in every
// bias.
func TestMatMulSIMDSpecialsAtEveryLane(t *testing.T) {
	const kABT, kRows = 5, nzTile + 1
	rng := rand.New(rand.NewSource(43))
	for _, n := range zmmNs {
		for _, where := range []string{"b_lane", "b_all", "left_all", "bias"} {
			for _, s := range specials {
				at := func(x *Tensor, lane func(j int) int) *Tensor {
					for j := 0; j < n; j++ {
						if where == "b_lane" {
							x.Data[lane(j)] = s
						}
					}
					if where == "b_all" {
						x.Fill(s)
					}
					return x
				}
				left := func(shape ...int) *Tensor {
					x := withZeros(rng, 0.3, randTensor(rng, shape...))
					if where == "left_all" {
						x.Fill(s)
					}
					return x
				}
				bias := randTensor(rng, n)
				if where == "bias" {
					bias.Fill(s)
				}
				what := fmt.Sprintf("n=%d, %v in %s", n, s, where)
				t.Run(what, func(t *testing.T) {
					for m := 1; m <= 9; m++ {
						abtOnEveryPath(t, left(m, kABT), at(randTensor(rng, n, kABT), func(j int) int { return j*kABT + j%kABT }), bias)
					}
					for _, m := range []int{1, 5} {
						abOnEveryPath(t, left(m, kRows), at(randTensor(rng, kRows, n), func(j int) int { return (j%kRows)*n + j }), bias)
						atbOnEveryPath(t, left(kRows, m), at(randTensor(rng, kRows, n), func(j int) int { return (j%kRows)*n + j }))
					}
				})
			}
		}
	}
}

// A zero left entry never multiplies b, so ±Inf and NaN in b rows that
// only zeros reach leave the output finite (0·Inf would be NaN). Steps
// p%3 == 0 of b are non-finite; output row i is clean when its left
// entries at those steps are zero, which the rule i%3 != 1 makes true of
// 0, 2, 3, 5 and 6. Over 7 rows or steps that drives every arm of the
// pair loops' switch (row/step pairs (0,1), (2,3), (4,5)) and the unpaired
// last one into a poisoned b row. n = 95 puts a 64-column block and an
// AVX2 remainder on every path that has them.
func TestMatMulZeroSkipsNonFinite(t *testing.T) {
	const m, k, n = 7, 7, 95
	rng := rand.New(rand.NewSource(9))
	poison := []float64{math.Inf(1), math.Inf(-1), math.NaN()}
	b := randTensor(rng, k, n)
	for p := 0; p < k; p += 3 {
		for j := 0; j < n; j++ {
			b.Data[p*n+j] = poison[j%len(poison)]
		}
	}
	a := withZeros(rng, 0.5, randTensor(rng, m, k))
	for i := 0; i < m; i++ {
		for p := 0; p < k; p += 3 {
			a.Data[i*k+p] = 0
			if i%3 == 1 {
				a.Data[i*k+p] = 1
			}
		}
	}
	ab := abOnEveryPath(t, a, b, nil)
	atb := atbOnEveryPath(t, transpose(a), b) // column i of aᵀ is output row i
	for _, tc := range []struct {
		name string
		outs []*Tensor
	}{{"ab", ab}, {"atb", atb}} {
		for _, out := range tc.outs {
			for i := 0; i < m; i++ {
				if i%3 == 1 {
					continue
				}
				for j := 0; j < n; j++ {
					if v := out.Data[i*n+j]; math.IsInf(v, 0) || math.IsNaN(v) {
						t.Fatalf("%s[%d,%d] = %v: a zero left entry reached a non-finite b", tc.name, i, j, v)
					}
				}
			}
		}
	}
}

// fuzzOperands returns a fill function that lays data's raw float64 bit
// patterns, cycled, across successive tensors, or small integers when
// data holds less than one value.
func fuzzOperands(data []byte) func(shape ...int) *Tensor {
	i := 0
	return func(shape ...int) *Tensor {
		x := New(shape...)
		for j := range x.Data {
			if len(data) < 8 {
				x.Data[j] = float64(i%7) - 3
			} else {
				x.Data[j] = math.Float64frombits(binary.LittleEndian.Uint64(data[(i*8)%(len(data)-7):]))
			}
			i++
		}
		return x
	}
}

// fuzzSeed holds specials and a few ordinary values as raw bit patterns.
func fuzzSeed() []byte {
	seed := make([]byte, 0, 8*(len(specials)+3))
	for _, v := range append(specials, 1.5, -3, 1e308) {
		seed = binary.LittleEndian.AppendUint64(seed, math.Float64bits(v))
	}
	return seed
}

// fuzzShape maps fuzzed bytes to a product's shape: m in 1–9, k in 0–159
// (past one of nzRows' p-tiles) and n in 1–160 (past two of nzKernelAVX512's
// 64-column blocks).
func fuzzShape(mb, kb, nb uint8) (m, k, n int) {
	return 1 + int(mb%9), int(kb % 160), 1 + int(nb%160)
}

// FuzzMatMulABT checks the SIMD kernels against the scalar loop on every
// path the CPU has (onEveryPath), on fuzzed shapes and raw float64 bit
// patterns.
func FuzzMatMulABT(f *testing.F) {
	seed := fuzzSeed()
	f.Add(uint8(3), uint8(9), uint8(32), true, seed)
	f.Add(uint8(1), uint8(1), uint8(17), false, seed)
	f.Add(uint8(4), uint8(0), uint8(16), true, []byte{})
	// Two whole 4-row groups and a leftover row, over four 16-column blocks.
	f.Add(uint8(8), uint8(13), uint8(63), true, seed)
	f.Fuzz(func(t *testing.T, mb, kb, nb uint8, withBias bool, data []byte) {
		m, k, n := fuzzShape(mb, kb, nb)
		fill := fuzzOperands(data)
		a, b := fill(m, k), fill(n, k)
		var bias *Tensor
		if withBias {
			bias = fill(n)
		}
		abtOnEveryPath(t, a, b, bias)
	})
}

// FuzzMatMulAB checks a·b's SIMD sweeps against the scalar loops on every
// path the CPU has, on fuzzed shapes, raw float64 bit patterns and a fuzzed
// share of zeros (zb%5 quarters) in the left operand.
func FuzzMatMulAB(f *testing.F) {
	seed := fuzzSeed()
	f.Add(uint8(3), uint8(9), uint8(32), uint8(2), true, seed)
	f.Add(uint8(1), uint8(1), uint8(17), uint8(4), false, seed)
	f.Add(uint8(4), uint8(0), uint8(7), uint8(0), true, []byte{})
	// n = 10, 16 and 33 (the masked tail alone, one 16-column block, a
	// 32-column block and a one-lane tail) at 75 % zeros.
	f.Add(uint8(8), uint8(39), uint8(9), uint8(3), true, seed)
	f.Add(uint8(2), uint8(25), uint8(15), uint8(3), false, seed)
	f.Add(uint8(5), uint8(33), uint8(32), uint8(3), true, seed)
	// n = 64, and 129 past a p-tile (one 64-column block, then two and a
	// one-lane remainder resuming from their stored sums).
	f.Add(uint8(2), uint8(20), uint8(63), uint8(2), true, seed)
	f.Add(uint8(3), uint8(131), uint8(128), uint8(2), true, seed)
	f.Fuzz(func(t *testing.T, mb, kb, nb, zb uint8, withBias bool, data []byte) {
		m, k, n := fuzzShape(mb, kb, nb)
		fill := fuzzOperands(data)
		a := withZeros(rand.New(rand.NewSource(int64(zb))), float64(zb%5)/4, fill(m, k))
		b := fill(k, n)
		var bias *Tensor
		if withBias {
			bias = fill(n)
		}
		abOnEveryPath(t, a, b, bias)
	})
}

// FuzzMatMulATB checks aᵀ·b's SIMD sweeps against the scalar loops as
// FuzzMatMulAB does.
func FuzzMatMulATB(f *testing.F) {
	seed := fuzzSeed()
	f.Add(uint8(3), uint8(9), uint8(32), uint8(2), seed)
	f.Add(uint8(1), uint8(2), uint8(17), uint8(4), seed)
	f.Add(uint8(4), uint8(0), uint8(7), uint8(0), []byte{})
	// n = 10, 16, 33, 64 and 129 as in FuzzMatMulAB.
	f.Add(uint8(8), uint8(39), uint8(9), uint8(3), seed)
	f.Add(uint8(2), uint8(25), uint8(15), uint8(3), seed)
	f.Add(uint8(5), uint8(33), uint8(32), uint8(3), seed)
	f.Add(uint8(2), uint8(20), uint8(63), uint8(2), seed)
	f.Add(uint8(3), uint8(131), uint8(128), uint8(2), seed)
	f.Fuzz(func(t *testing.T, mb, kb, nb, zb uint8, data []byte) {
		m, k, n := fuzzShape(mb, kb, nb)
		fill := fuzzOperands(data)
		a := withZeros(rand.New(rand.NewSource(int64(zb))), float64(zb%5)/4, fill(k, m))
		atbOnEveryPath(t, a, fill(k, n))
	})
}

// Concurrent products of several sizes share the panel free list; each must
// match its own serial result (run under -race).
func TestMatMulABTConcurrentPanels(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	type job struct{ a, b, want *Tensor }
	var jobs []job
	for _, s := range [][3]int{{40, 72, 32}, {12, 128, 160}, {300, 30, 64}, {3, 9, 16}} {
		a, b, want := randTensor(rng, s[0], s[1]), randTensor(rng, s[2], s[1]), New(s[0], s[2])
		MatMulABTInto(want, a, b)
		jobs = append(jobs, job{a, b, want})
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for it := 0; it < 20; it++ {
				j := jobs[(g+it)%len(jobs)]
				got := New(j.want.Dim(0), j.want.Dim(1))
				MatMulABTInto(got, j.a, j.b)
				for i, w := range j.want.Data {
					if math.Float64bits(got.Data[i]) != math.Float64bits(w) {
						t.Errorf("goroutine %d: [%d] = %v, want %v", g, i, got.Data[i], w)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
}

// The SIMD path's packed panel is recycled, so a steady-state product below
// the parallel threshold allocates nothing.
func TestMatMulABTSteadyStateAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	a, b, bias := randTensor(rng, 32, 72), randTensor(rng, 32, 72), randTensor(rng, 32)
	dst := New(32, 32)
	if 32*72*32 >= parallelThreshold {
		t.Fatal("shape must stay below parallelThreshold")
	}
	MatMulABTBiasInto(dst, a, b, bias)
	if avg := testing.AllocsPerRun(100, func() { MatMulABTBiasInto(dst, a, b, bias) }); avg != 0 {
		t.Fatalf("MatMulABTBiasInto allocates %v per call at steady state, want 0", avg)
	}
}

// The serial a·b and aᵀ·b paths allocate nothing: the kernels take
// pointers that do not escape.
func TestMatMulABAndATBAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	a, b, bias := withZeros(rng, 0.7, randTensor(rng, 10, 128)), randTensor(rng, 128, 30), randTensor(rng, 30)
	at, g := withZeros(rng, 0.7, randTensor(rng, 10, 64)), randTensor(rng, 10, 128)
	dst, dstATB := New(10, 30), New(64, 128)
	if 10*128*30 >= parallelThreshold {
		t.Fatal("a·b shape must stay below parallelThreshold")
	}
	if 10*64*128 >= parallelThreshold {
		t.Fatal("aᵀ·b shape must stay below parallelThreshold")
	}
	for name, product := range map[string]func(){
		"MatMulBiasInto": func() { MatMulBiasInto(dst, a, b, bias) },
		"MatMulATBInto":  func() { MatMulATBInto(dstATB, at, g) },
	} {
		if avg := testing.AllocsPerRun(100, product); avg != 0 {
			t.Errorf("%s allocates %v per call, want 0", name, avg)
		}
	}
}

// Up to GOMAXPROCS trainers run at once, each cycling through the CNN's
// three ABT panel sizes (conv1, conv2, dense input gradient) and holding
// one panel at a time. Once GOMAXPROCS panels of the largest size exist,
// every request fits a free one, so the free list must keep them: then
// the steady state allocates nothing. GOMAXPROCS is raised to at least 16
// so a small box exercises many callers; m is kept small so no product
// fans out to parallelRows' goroutines.
func TestMatMulABTConcurrentSteadyStateAllocs(t *testing.T) {
	if !useSIMD {
		t.Skip("no SIMD ABT kernel on this CPU")
	}
	procs := max(16, runtime.GOMAXPROCS(0))
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
	rng := rand.New(rand.NewSource(8))
	var as, bs []*Tensor
	dsts := make([][]*Tensor, procs)
	for _, s := range [][3]int{{64, 9, 32}, {4, 288, 64}, {1, 128, 1600}} { // m, k, n
		if m, k, n := s[0], s[1], s[2]; m*k*n >= parallelThreshold && m != 1 {
			t.Fatalf("%v must stay below parallelThreshold", s)
		}
		as, bs = append(as, randTensor(rng, s[0], s[1])), append(bs, randTensor(rng, s[2], s[1]))
		for g := range dsts {
			dsts[g] = append(dsts[g], New(s[0], s[2]))
		}
	}
	run := func(iters int) {
		var wg sync.WaitGroup
		wg.Add(procs)
		for g := 0; g < procs; g++ {
			go func(g int) {
				defer wg.Done()
				for it := 0; it < iters; it++ {
					for i := range as {
						MatMulABTInto(dsts[g][i], as[i], bs[i])
					}
				}
			}(g)
		}
		wg.Wait()
	}
	// Warm up the runtime (threads for the raised GOMAXPROCS, goroutines),
	// then the free list to the peak: every caller holding a dense-gradient
	// panel at once.
	run(1)
	held := make([][]float64, procs)
	for g := range held {
		held[g] = getPanel(128 * 1600)
	}
	for _, p := range held {
		putPanel(p)
	}

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	run(20)
	runtime.ReadMemStats(&after)
	// The runtime's own bookkeeping reads as tens of KiB; a remade panel
	// is at least a conv2 one.
	if got, conv2 := after.TotalAlloc-before.TotalAlloc, uint64(64*288*8); got >= conv2 {
		t.Fatalf("%d callers × 20 rounds of 3 shapes allocated %d B at steady state, want < %d (no panel)", procs, got, conv2)
	}
}

// Up to GOMAXPROCS trainers run a·b and aᵀ·b at once: the FedAT MLP's
// products, and longer ones that walk several of nzRows' p-tiles. The
// lists live on nzRows' stack, so the steady state allocates nothing.
// GOMAXPROCS is raised to at least 16 so a small box exercises many
// callers; every product stays below parallelThreshold, so none fans out
// to parallelRows' goroutines, which allocate.
func TestMatMulABAndATBConcurrentSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own")
	}
	procs := max(16, runtime.GOMAXPROCS(0))
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
	rng := rand.New(rand.NewSource(11))
	type job struct {
		atb        bool
		a, b, bias *Tensor
		m, n       int
	}
	var jobs []job
	for _, s := range []struct {
		atb     bool
		m, k, n int
	}{{false, 10, 48, 32}, {false, 10, 32, 10}, {false, 2, 1600, 33}, {true, 48, 10, 32}, {true, 32, 10, 10}, {true, 8, 300, 47}} {
		if s.m*s.k*s.n >= parallelThreshold {
			t.Fatalf("%v must stay below parallelThreshold", s)
		}
		j := job{atb: s.atb, b: randTensor(rng, s.k, s.n), m: s.m, n: s.n}
		if s.atb {
			j.a = withZeros(rng, 0.5, randTensor(rng, s.k, s.m))
		} else {
			j.a, j.bias = withZeros(rng, 0.5, randTensor(rng, s.m, s.k)), randTensor(rng, s.n)
		}
		jobs = append(jobs, j)
	}
	dsts := make([][]*Tensor, procs)
	for g := range dsts {
		for _, j := range jobs {
			dsts[g] = append(dsts[g], New(j.m, j.n))
		}
	}
	run := func(iters int) {
		var wg sync.WaitGroup
		wg.Add(procs)
		for g := 0; g < procs; g++ {
			go func(g int) {
				defer wg.Done()
				for it := 0; it < iters; it++ {
					for i, j := range jobs {
						if j.atb {
							MatMulATBInto(dsts[g][i], j.a, j.b)
						} else {
							MatMulBiasInto(dsts[g][i], j.a, j.b, j.bias)
						}
					}
				}
			}(g)
		}
		wg.Wait()
	}
	run(1) // threads for the raised GOMAXPROCS, goroutine stacks
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	run(20)
	runtime.ReadMemStats(&after)
	// run's goroutines and the runtime's own bookkeeping make a few dozen
	// allocations; a list on the heap would make one per product.
	if got, products := after.Mallocs-before.Mallocs, uint64(procs*20*len(jobs)); got >= products/10 {
		t.Fatalf("%d callers × 20 rounds of %d products made %d allocations at steady state, want < %d", procs, len(jobs), got, products/10)
	}
}

// benchZeros are the left-operand zero shares benchGemm runs each a·b and
// aᵀ·b shape at: dense, then the shares of a paper-CNN training run
// (conv2's columns 51 %, the dense input gradient 85 %, conv2's output
// gradient 95 %). a·bᵀ skips no zeros, so its shapes run dense only.
var benchZeros = []float64{0, 0.51, 0.85, 0.95}

// abtShapes are the workloads' a·bᵀ products (m×k times (n×k)ᵀ): the
// paper CNN's conv forwards at batch 10, conv2's at a 50-image evaluation
// batch, and the dense layer's input gradient.
var abtShapes = []gemmCase{
	{"conv1", 1440, 9, 32},
	{"conv2", 1000, 288, 64},
	{"conv2_eval", 5000, 288, 64},
	{"dense_dx", 10, 128, 1600},
}

// benchGemm reports product's throughput on every path the CPU has,
// counting 2·m·k·n flops per call at every zero share, so a sparse row's
// GFLOP/s counts the skipped products as done. The left operand is k×m
// when leftT, else m×k; the right is n×k when rightT, else k×n.
func benchGemm(b *testing.B, cases []gemmCase, zeros []float64, leftT, rightT bool, product func(dst, a, b *Tensor)) {
	defer func() { useSIMD, useAVX512 = cpuSIMD, cpuAVX512 }()
	for _, c := range cases {
		for _, z := range zeros {
			rng := rand.New(rand.NewSource(1))
			left := withZeros(rng, z, randTensor(rng, c.m, c.k))
			if leftT {
				left = transpose(left)
			}
			right, dst := randTensor(rng, c.k, c.n), New(c.m, c.n)
			if rightT {
				right = transpose(right)
			}
			for _, p := range cpuPaths(b) {
				b.Run(fmt.Sprintf("%s/zeros%.0f%%/%s", c.name, 100*z, p.name), func(b *testing.B) {
					useSIMD, useAVX512 = p.simd, p.avx512
					b.ResetTimer()
					for i := 0; i < b.N; i++ {
						product(dst, left, right)
					}
					b.ReportMetric(2*float64(c.m*c.k*c.n)*float64(b.N)/b.Elapsed().Seconds()/1e9, "GFLOP/s")
				})
			}
		}
	}
}

func BenchmarkMatMulABT(b *testing.B) {
	benchGemm(b, abtShapes, []float64{0}, false, true, MatMulABTInto)
}

func BenchmarkMatMulAB(b *testing.B) { benchGemm(b, abShapes, benchZeros, false, false, MatMulInto) }

func BenchmarkMatMulATB(b *testing.B) {
	benchGemm(b, atbShapes, benchZeros, true, false, MatMulATBInto)
}
