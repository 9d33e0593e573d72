package tensor

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sync"
	"testing"
)

// bothPaths returns product's m×n result computed by the scalar loops and
// by the SIMD kernels, each into a destination of stale values. It skips
// the test on a CPU without the kernels.
func bothPaths(t *testing.T, m, n int, product func(dst *Tensor)) (scalar, simd *Tensor) {
	t.Helper()
	if !useSIMD {
		t.Skip("no SIMD kernels on this CPU")
	}
	scalar, simd = full(999, m, n), full(-999, m, n)
	useSIMD = false
	defer func() { useSIMD = true }()
	product(scalar)
	useSIMD = true
	product(simd)
	return scalar, simd
}

// abtBothPaths returns a·bᵀ (+bias) on both paths.
func abtBothPaths(t *testing.T, a, b, bias *Tensor) (scalar, simd *Tensor) {
	t.Helper()
	return bothPaths(t, a.Dim(0), b.Dim(0), func(dst *Tensor) { matMulABTBiasInto(dst, a, b, bias, "abt") })
}

// abBothPaths returns a·b (+bias) on both paths.
func abBothPaths(t *testing.T, a, b, bias *Tensor) (scalar, simd *Tensor) {
	t.Helper()
	return bothPaths(t, a.Dim(0), b.Dim(1), func(dst *Tensor) { matMulBiasInto(dst, a, b, bias, "ab") })
}

// atbBothPaths returns aᵀ·b on both paths.
func atbBothPaths(t *testing.T, a, b *Tensor) (scalar, simd *Tensor) {
	t.Helper()
	return bothPaths(t, a.Dim(1), b.Dim(1), func(dst *Tensor) { MatMulATBInto(dst, a, b) })
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

func TestMatMulABTSIMDBitEqualScalar(t *testing.T) {
	for _, tc := range []struct {
		name    string
		m, k, n int
	}{
		{"conv1", 1440, 9, 32},
		{"conv2", 1000, 288, 64},
		{"dense_dx", 10, 128, 1600},
		{"odd_m", 37, 20, 48},
		{"m1", 1, 50, 32},
		{"k1", 9, 1, 16},
		{"tail17", 5, 13, 17},
		{"tail31", 6, 7, 31},
	} {
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
				scalar, simd := abtBothPaths(t, a, b, bias)
				mustSameResult(t, "abt", simd, scalar)
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
	// Odd m leaves matMulRows an unpaired last row. One row past a p-tile
	// leaves nzRows a last tile of one step, which adds the bias.
	for _, tc := range tailCases(5, 6, append(abShapes, gemmCase{"odd_m", 37, 20, 48}, gemmCase{"m1", 1, 50, 32},
		gemmCase{"tile_plus1", 5, nzTile + 1, 33})...) {
		for _, zeros := range zeroDensities {
			t.Run(fmt.Sprintf("%s/zeros%.0f%%", tc.name, 100*zeros), func(t *testing.T) {
				rng := rand.New(rand.NewSource(int64(tc.m*tc.k + tc.n)))
				a := withZeros(rng, zeros, randSpecialTensor(rng, tc.m, tc.k))
				b, bias := randSpecialTensor(rng, tc.k, tc.n), randTensor(rng, tc.n)
				scalar, simd := abBothPaths(t, a, b, bias)
				mustSameResult(t, "ab", simd, scalar)
			})
		}
	}
}

func TestMatMulATBSIMDBitEqualScalar(t *testing.T) {
	// Odd k leaves matMulATBRows an unpaired last step. k = 1000 walks
	// nzRows' p-tiles with a partial last one, and one row past a p-tile
	// leaves it a last tile of one step.
	for _, tc := range tailCases(6, 7, append(atbShapes, gemmCase{"odd_k", 12, 37, 48}, gemmCase{"k1", 9, 1, 16},
		gemmCase{"k1000", 7, 1000, 33}, gemmCase{"tile_plus1", 5, nzTile + 1, 10})...) {
		for _, zeros := range zeroDensities {
			t.Run(fmt.Sprintf("%s/zeros%.0f%%", tc.name, 100*zeros), func(t *testing.T) {
				rng := rand.New(rand.NewSource(int64(tc.m*tc.k + tc.n)))
				a := withZeros(rng, zeros, randSpecialTensor(rng, tc.k, tc.m))
				b := randSpecialTensor(rng, tc.k, tc.n)
				scalar, simd := atbBothPaths(t, a, b)
				mustSameResult(t, "atb", simd, scalar)
			})
		}
	}
}

// A zero left entry never multiplies b, so ±Inf and NaN in b rows that
// only zeros reach leave the output finite (0·Inf would be NaN). Steps
// p%3 == 0 of b are non-finite; output row i is clean when its left
// entries at those steps are zero, which the rule i%3 != 1 makes true of
// 0, 2, 3, 5 and 6. Over 7 rows or steps that drives every arm of the
// pair loops' switch (row/step pairs (0,1), (2,3), (4,5)) and the unpaired
// last one into a poisoned b row.
func TestMatMulZeroSkipsNonFinite(t *testing.T) {
	const m, k, n = 7, 7, 31
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
	abScalar, abSIMD := abBothPaths(t, a, b, nil)
	atbScalar, atbSIMD := atbBothPaths(t, transpose(a), b) // column i of aᵀ is output row i
	for _, tc := range []struct {
		name         string
		scalar, simd *Tensor
	}{{"ab", abScalar, abSIMD}, {"atb", atbScalar, atbSIMD}} {
		mustSameResult(t, tc.name, tc.simd, tc.scalar)
		for i := 0; i < m; i++ {
			if i%3 == 1 {
				continue
			}
			for j := 0; j < n; j++ {
				if v := tc.simd.Data[i*n+j]; math.IsInf(v, 0) || math.IsNaN(v) {
					t.Fatalf("%s[%d,%d] = %v: a zero left entry reached a non-finite b", tc.name, i, j, v)
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

// FuzzMatMulABT checks the SIMD kernel against the scalar loop on fuzzed
// shapes and raw float64 bit patterns.
func FuzzMatMulABT(f *testing.F) {
	seed := fuzzSeed()
	f.Add(uint8(3), uint8(9), uint8(32), true, seed)
	f.Add(uint8(1), uint8(1), uint8(17), false, seed)
	f.Add(uint8(4), uint8(0), uint8(16), true, []byte{})
	f.Fuzz(func(t *testing.T, mb, kb, nb uint8, withBias bool, data []byte) {
		m, k, n := 1+int(mb%9), int(kb%40), 1+int(nb%48)
		fill := fuzzOperands(data)
		a, b := fill(m, k), fill(n, k)
		var bias *Tensor
		if withBias {
			bias = fill(n)
		}
		scalar, simd := abtBothPaths(t, a, b, bias)
		mustSameResult(t, "abt", simd, scalar)
	})
}

// FuzzMatMulAB checks a·b's SIMD sweeps against the scalar loops on fuzzed
// shapes, raw float64 bit patterns and a fuzzed share of zeros (zb%5
// quarters) in the left operand.
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
	f.Fuzz(func(t *testing.T, mb, kb, nb, zb uint8, withBias bool, data []byte) {
		m, k, n := 1+int(mb%9), int(kb%40), 1+int(nb%48)
		fill := fuzzOperands(data)
		a := withZeros(rand.New(rand.NewSource(int64(zb))), float64(zb%5)/4, fill(m, k))
		b := fill(k, n)
		var bias *Tensor
		if withBias {
			bias = fill(n)
		}
		scalar, simd := abBothPaths(t, a, b, bias)
		mustSameResult(t, "ab", simd, scalar)
	})
}

// FuzzMatMulATB checks aᵀ·b's SIMD sweeps against the scalar loops as
// FuzzMatMulAB does.
func FuzzMatMulATB(f *testing.F) {
	seed := fuzzSeed()
	f.Add(uint8(3), uint8(9), uint8(32), uint8(2), seed)
	f.Add(uint8(1), uint8(2), uint8(17), uint8(4), seed)
	f.Add(uint8(4), uint8(0), uint8(7), uint8(0), []byte{})
	// n = 10, 16 and 33 at 75 % zeros, as in FuzzMatMulAB.
	f.Add(uint8(8), uint8(39), uint8(9), uint8(3), seed)
	f.Add(uint8(2), uint8(25), uint8(15), uint8(3), seed)
	f.Add(uint8(5), uint8(33), uint8(32), uint8(3), seed)
	f.Fuzz(func(t *testing.T, mb, kb, nb, zb uint8, data []byte) {
		m, k, n := 1+int(mb%9), int(kb%40), 1+int(nb%48)
		fill := fuzzOperands(data)
		a := withZeros(rand.New(rand.NewSource(int64(zb))), float64(zb%5)/4, fill(k, m))
		scalar, simd := atbBothPaths(t, a, fill(k, n))
		mustSameResult(t, "atb", simd, scalar)
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

// benchZeros are the left-operand zero shares benchGemm runs each shape
// at: dense, then the shares of a paper-CNN training run (conv2's columns
// 51 %, the dense input gradient 85 %, conv2's output gradient 95 %).
var benchZeros = []float64{0, 0.51, 0.85, 0.95}

// benchGemm reports product's throughput on the scalar loops and on the
// SIMD kernels, counting 2·m·k·n flops per call at every zero share, so a
// sparse row's GFLOP/s counts the skipped products as done. The left
// operand is k×m when leftT, else m×k.
func benchGemm(b *testing.B, cases []gemmCase, leftT bool, product func(dst, a, b *Tensor)) {
	simd := useSIMD
	defer func() { useSIMD = simd }()
	for _, c := range cases {
		for _, zeros := range benchZeros {
			rng := rand.New(rand.NewSource(1))
			left := withZeros(rng, zeros, randTensor(rng, c.m, c.k))
			if leftT {
				left = transpose(left)
			}
			right, dst := randTensor(rng, c.k, c.n), New(c.m, c.n)
			for _, path := range []struct {
				name string
				on   bool
			}{{"scalar", false}, {"simd", true}} {
				b.Run(fmt.Sprintf("%s/zeros%.0f%%/%s", c.name, 100*zeros, path.name), func(b *testing.B) {
					if path.on && !simd {
						b.Skip("no SIMD kernels on this CPU")
					}
					useSIMD = path.on
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

func BenchmarkMatMulAB(b *testing.B) { benchGemm(b, abShapes, false, MatMulInto) }

func BenchmarkMatMulATB(b *testing.B) { benchGemm(b, atbShapes, true, MatMulATBInto) }
