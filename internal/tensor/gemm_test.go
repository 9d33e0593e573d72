package tensor

import (
	"encoding/binary"
	"math"
	"math/rand"
	"runtime"
	"sync"
	"testing"
)

// abtBothPaths returns a·bᵀ (+bias) computed by the scalar loop and by the
// SIMD kernel. It skips the test on a CPU without the kernel.
func abtBothPaths(t *testing.T, a, b, bias *Tensor) (scalar, simd *Tensor) {
	t.Helper()
	if !useSIMD {
		t.Skip("no SIMD ABT kernel on this CPU")
	}
	m, n := a.Dim(0), b.Dim(0)
	scalar, simd = full(999, m, n), full(-999, m, n)
	useSIMD = false
	defer func() { useSIMD = true }()
	matMulABTBiasInto(scalar, a, b, bias, "scalar")
	useSIMD = true
	matMulABTBiasInto(simd, a, b, bias, "simd")
	return scalar, simd
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

// FuzzMatMulABT checks the SIMD kernel against the scalar loop on fuzzed
// shapes and raw float64 bit patterns.
func FuzzMatMulABT(f *testing.F) {
	seed := make([]byte, 0, 8*len(specials))
	for _, v := range append(specials, 1.5, -3, 1e308) {
		seed = binary.LittleEndian.AppendUint64(seed, math.Float64bits(v))
	}
	f.Add(uint8(3), uint8(9), uint8(32), true, seed)
	f.Add(uint8(1), uint8(1), uint8(17), false, seed)
	f.Add(uint8(4), uint8(0), uint8(16), true, []byte{})
	f.Fuzz(func(t *testing.T, mb, kb, nb uint8, withBias bool, data []byte) {
		m, k, n := 1+int(mb%9), int(kb%40), 1+int(nb%48)
		val := func(i int) float64 {
			if len(data) < 8 {
				return float64(i%7) - 3
			}
			return math.Float64frombits(binary.LittleEndian.Uint64(data[(i*8)%(len(data)-7):]))
		}
		i := 0
		fill := func(shape ...int) *Tensor {
			x := New(shape...)
			for j := range x.Data {
				x.Data[j] = val(i)
				i++
			}
			return x
		}
		a, b := fill(m, k), fill(n, k)
		var bias *Tensor
		if withBias {
			bias = fill(n)
		}
		scalar, simd := abtBothPaths(t, a, b, bias)
		mustSameResult(t, "abt", simd, scalar)
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
