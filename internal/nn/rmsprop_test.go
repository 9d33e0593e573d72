package nn

import (
	"encoding/binary"
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/tensor"
)

// RMSprop.Step's kernels against its scalar loop: every case runs on each
// path the CPU has (scalar, avx2, avx512) by flipping useSIMD and
// useAVX512, three steps in a row, with the state drawn from a pool and
// without, and every parameter and cache value must come out with the same
// bits as the scalar path's after every step. NaNs compare as NaN-ness:
// which operand's payload a NaN carries is not part of the contract.

// rmspropCase is a Step sequence's input: each parameter's values and
// gradient, and its starting cache (nil: the zeroed state Step builds).
type rmspropCase struct {
	p, g, c      [][]float64
	lr, rho, eps float64
}

// paperRMSprop is a case at the paper's hyperparameters.
func paperRMSprop(p, g, c [][]float64) rmspropCase {
	return rmspropCase{p: p, g: g, c: c, lr: 0.01, rho: 0.9, eps: 1e-7}
}

// rmspropRun is one path's optimizer and tensors, built from a case.
type rmspropRun struct {
	opt           *RMSprop
	params, grads []*tensor.Tensor
}

func (rc rmspropCase) start(pool *tensor.Pool) rmspropRun {
	r := rmspropRun{opt: &RMSprop{LR: rc.lr, Rho: rc.rho, Eps: rc.eps}}
	if pool != nil {
		r.opt.AttachStatePool(pool)
	}
	for i := range rc.p {
		r.params = append(r.params, fromSlice(slices.Clone(rc.p[i]), len(rc.p[i])))
		r.grads = append(r.grads, fromSlice(slices.Clone(rc.g[i]), len(rc.g[i])))
	}
	r.opt.cache.init(r.params)
	for i, c := range rc.c {
		copy(r.opt.cache.bufs[i], c)
	}
	return r
}

// sameValue reports whether a and b have the same bits or are both NaN.
func sameValue(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b) || math.IsNaN(a) && math.IsNaN(b)
}

// rmspropPath is one way through Step: the scalar loop, the AVX2 kernel
// ahead of it, or the AVX-512 kernel ahead of both.
type rmspropPath struct {
	name         string
	simd, avx512 bool
}

var rmspropPaths = []rmspropPath{{"scalar", false, false}, {"avx2", true, false}, {"avx512", true, true}}

// cpuSIMD and cpuAVX512 are the switches as the CPU set them, before any
// test flips them.
var cpuSIMD, cpuAVX512 = useSIMD, useAVX512

// cpuPaths returns the paths this CPU has, scalar first, and logs each it
// lacks.
func cpuPaths(t testing.TB) []rmspropPath {
	t.Helper()
	switch {
	case !cpuSIMD:
		t.Log("no AVX2 kernels here (no AVX2, or not amd64): testing the scalar path alone")
		return rmspropPaths[:1]
	case !cpuAVX512:
		t.Log("no AVX-512 on this CPU: testing the scalar and AVX2 paths, not the AVX-512 one")
		return rmspropPaths[:2]
	}
	return rmspropPaths
}

// setPath flips the switches to p until the test ends.
func setPath(t testing.TB, p rmspropPath) {
	t.Cleanup(func() { useSIMD, useAVX512 = cpuSIMD, cpuAVX512 })
	useSIMD, useAVX512 = p.simd, p.avx512
}

// checkRMSpropPaths steps rc three times on every path the CPU has, pooled
// and not, and fails at the first parameter or cache value a path
// disagrees with the scalar path on.
func checkRMSpropPaths(t testing.TB, name string, rc rmspropCase) {
	t.Helper()
	defer func() { useSIMD, useAVX512 = cpuSIMD, cpuAVX512 }()
	paths := cpuPaths(t)
	for _, pooled := range []bool{false, true} {
		var pool *tensor.Pool
		if pooled {
			pool = new(tensor.Pool)
		}
		runs := make([]rmspropRun, len(paths))
		for i := range runs {
			runs[i] = rc.start(pool)
		}
		for step := 1; step <= 3; step++ {
			for i, p := range paths {
				useSIMD, useAVX512 = p.simd, p.avx512
				runs[i].opt.Step(runs[i].params, runs[i].grads)
			}
			scalar := runs[0]
			for k, run := range runs[1:] {
				for i := range scalar.params {
					want, got := scalar.params[i].Data, run.params[i].Data
					wantC, gotC := scalar.opt.cache.bufs[i], run.opt.cache.bufs[i]
					for j := range want {
						if !sameValue(got[j], want[j]) || !sameValue(gotC[j], wantC[j]) {
							t.Fatalf("%s, pooled %v, step %d, parameter %d[%d] of %d: %s p %v c %v, scalar p %v c %v",
								name, pooled, step, i, j, len(want), paths[k+1].name, got[j], gotC[j], want[j], wantC[j])
						}
					}
				}
			}
		}
		if pooled {
			for _, r := range runs {
				r.opt.ReleaseState()
			}
		}
	}
}

// rmspropVector is n deterministic values of mixed sign and magnitude.
func rmspropVector(rng *rand.Rand, n int, scale float64) []float64 {
	v := make([]float64, n)
	for i := range v {
		v[i] = rng.NormFloat64() * scale * math.Exp(rng.Float64()*4-2)
	}
	return v
}

// rmspropLayers is a case with one parameter per size, random values and
// gradients and, with warm set, a random nonnegative starting cache.
func rmspropLayers(rng *rand.Rand, warm bool, sizes ...int) rmspropCase {
	rc := paperRMSprop(nil, nil, nil)
	for _, n := range sizes {
		rc.p = append(rc.p, rmspropVector(rng, n, 0.1))
		rc.g = append(rc.g, rmspropVector(rng, n, 1))
		if warm {
			c := rmspropVector(rng, n, 0.01)
			for i := range c {
				c[i] *= c[i]
			}
			rc.c = append(rc.c, c)
		}
	}
	return rc
}

func TestRMSpropSIMDBitEqualScalar(t *testing.T) {
	rng := rand.New(rand.NewSource(35))
	for n := 0; n <= 17; n++ {
		checkRMSpropPaths(t, "one parameter", rmspropLayers(rng, false, n))
		checkRMSpropPaths(t, "one parameter, warm cache", rmspropLayers(rng, true, n))
	}
	checkRMSpropPaths(t, "mixed lengths", rmspropLayers(rng, true, 5, 0, 17, 4, 1, 34_186, 3, 8, 12, 15, 23))
	checkRMSpropPaths(t, "tree MLP", rmspropLayers(rng, false, 34_186))
	var cnn []int
	for _, p := range NewPaperMNISTCNN(rng, 14, 14, 1, 10).Params() {
		cnn = append(cnn, p.Size())
	}
	checkRMSpropPaths(t, "paper CNN", rmspropLayers(rng, true, cnn...))

	// A square that overflows to +Inf, a zero cache under a zero gradient
	// (the divisor is eps alone), and the same with −0 gradients.
	huge := []float64{1e200, -1e200, 1e155, math.MaxFloat64, 3, -1e160, 1e-160, 2}
	checkRMSpropPaths(t, "overflowing square", paperRMSprop(
		[][]float64{{1, 2, 3, 4, 5, 6, 7, 8}}, [][]float64{huge}, nil))
	zero := make([]float64, 9)
	negZero := slices.Repeat([]float64{math.Copysign(0, -1)}, 9)
	checkRMSpropPaths(t, "zero cache and gradient", paperRMSprop(
		[][]float64{{1, -1, 0, negZero[0], 5, 6, 7, 8, 9}}, [][]float64{zero}, [][]float64{zero}))
	checkRMSpropPaths(t, "zero cache, −0 gradient", paperRMSprop(
		[][]float64{{1, -1, 0, negZero[0], 5, 6, 7, 8, 9}}, [][]float64{negZero}, [][]float64{zero}))
}

// Every special in g, c and p at every lane position of 0–17 values.
func TestRMSpropSIMDSpecialsAtEveryLane(t *testing.T) {
	rng := rand.New(rand.NewSource(36))
	for n := 1; n <= 17; n++ {
		base := rmspropLayers(rng, true, n)
		for which, name := range []string{"p", "g", "c"} {
			v := [][][]float64{base.p, base.g, base.c}[which][0]
			for i := range v {
				for _, s := range specials {
					old := v[i]
					v[i] = s
					checkRMSpropPaths(t, name+" special", base)
					v[i] = old
				}
			}
		}
	}
}

// A parameter or gradient whose length is not its state's panics on both
// paths, before either touches memory; the kernel is never handed a short
// slice.
func TestRMSpropRefusesMismatchedShapes(t *testing.T) {
	for _, tc := range []struct {
		name   string
		np, ng int // the Step's parameter and gradient lengths; the state has 9
	}{
		{name: "short gradient", np: 9, ng: 5},
		{name: "short gradient, one lane group", np: 9, ng: 4},
		{name: "short gradient, one 8-lane group", np: 9, ng: 8},
		{name: "long gradient", np: 9, ng: 12},
		{name: "short parameter", np: 5, ng: 9},
		{name: "short parameter and gradient", np: 4, ng: 4},
	} {
		for _, p := range cpuPaths(t) {
			setPath(t, p)
			rc := paperRMSprop([][]float64{make([]float64, 9)}, [][]float64{make([]float64, 9)}, nil)
			r := rc.start(nil)
			r.params[0] = tensor.New(tc.np)
			r.grads[0] = tensor.New(tc.ng)
			func() {
				defer func() {
					if recover() == nil {
						t.Errorf("%s, %s: Step did not panic", tc.name, p.name)
					}
				}()
				r.opt.Step(r.params, r.grads)
			}()
		}
	}
}

// A warmed Step allocates nothing, on either path, pooled or not.
func TestRMSpropStepAllocs(t *testing.T) {
	rc := rmspropLayers(rand.New(rand.NewSource(37)), false, 34_186, 13, 128)
	for _, p := range cpuPaths(t) {
		setPath(t, p)
		for _, pool := range []*tensor.Pool{nil, new(tensor.Pool)} {
			r := rc.start(pool)
			if got := testing.AllocsPerRun(20, func() { r.opt.Step(r.params, r.grads) }); got != 0 {
				t.Errorf("%s, pooled %v: Step allocates %v times, want 0", p.name, pool != nil, got)
			}
		}
	}
}

// FuzzRMSpropStep holds every path equal on raw float64 bit patterns of p,
// g and c and on fuzzed hyperparameters. The three vectors are cut from
// one fuzzed byte string, eight bytes per value, to the same length.
func FuzzRMSpropStep(f *testing.F) {
	bits := func(vs ...float64) []byte {
		var b []byte
		for _, v := range vs {
			b = binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
		}
		return b
	}
	f.Add(bits(1, 2, 3, 4, 5, 6, 7, 8, 9, 0.5, 0.25, 0.125, 0, 0, 0), 0.01, 0.9, 1e-7)
	f.Add(bits(specials...), 0.01, 0.9, 1e-7)
	f.Add(bits(1e200, math.Inf(1), 0, -0.5, math.NaN(), 1e-310, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18), 1e300, 1.5, 0.0)
	negZero := math.Copysign(0, -1)
	f.Add(bits(1, 1, 1, 1, 1, 1, 1, 1, // p
		1e-200, 3, 5, 1e-200, 2, 1, 1, 1, // g
		negZero, 4, 9, negZero, 0.25, 1e-300, 1e300, 2), // c: with rho 1.5, −0 reaches the square root
		1.0, 1.5, 0.0)
	f.Fuzz(func(t *testing.T, data []byte, lr, rho, eps float64) {
		n := len(data) / 24
		v := make([]float64, 3*n)
		for i := range v {
			v[i] = math.Float64frombits(binary.LittleEndian.Uint64(data[8*i:]))
		}
		rc := rmspropCase{p: [][]float64{v[:n]}, g: [][]float64{v[n : 2*n]}, c: [][]float64{v[2*n:]}, lr: lr, rho: rho, eps: eps}
		checkRMSpropPaths(t, "fuzzed", rc)
	})
}

// BenchmarkRMSpropStep is one Step over the tree MLP's 34 186 parameters
// and the paper CNN's 225 034, on every path the CPU has. SetBytes counts
// the five streams a step moves per parameter (p, g and c read; p and c
// written), so its MB/s reads against BenchmarkRMSpropCopy, the memory
// ceiling, and its ns/op against BenchmarkRMSpropDivider, the divider
// ceiling; the M params/s metric is what the benchmark's
// nn.rmsprop_mparams_s probes.
func BenchmarkRMSpropStep(b *testing.B) {
	for _, size := range rmspropBenchSizes {
		rc := rmspropLayers(rand.New(rand.NewSource(1)), false, size.n)
		for _, p := range rmspropPaths {
			b.Run(size.name+"/"+p.name, func(b *testing.B) {
				if p.simd && !cpuSIMD || p.avx512 && !cpuAVX512 {
					b.Skip("no " + p.name + " kernel on this CPU")
				}
				setPath(b, p)
				r := rc.start(nil)
				r.opt.Step(r.params, r.grads)
				b.SetBytes(5 * 8 * int64(size.n))
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					r.opt.Step(r.params, r.grads)
				}
				b.ReportMetric(float64(size.n)*float64(b.N)/b.Elapsed().Seconds()/1e6, "Mparams/s")
			})
		}
	}
}

var rmspropBenchSizes = []struct {
	name string
	n    int
}{{"treeMLP", 34_186}, {"paperCNN", 225_034}}

// BenchmarkRMSpropCopy is the memory ceiling: a copy moving the same bytes
// as a step (five streams of n float64s: two copies and a half).
func BenchmarkRMSpropCopy(b *testing.B) {
	for _, size := range rmspropBenchSizes {
		b.Run(size.name, func(b *testing.B) {
			src, dst := make([]float64, 5*size.n/2), make([]float64, 5*size.n/2)
			b.SetBytes(5 * 8 * int64(size.n))
			for i := 0; i < b.N; i++ {
				copy(dst, src)
			}
		})
	}
}

// BenchmarkRMSpropDivider is the divider ceiling: one division per
// parameter, four lanes at a time (divKernel), with the bytes of a step
// counted as in BenchmarkRMSpropStep. It is the only divider work left in
// a step once rmspropKernelAVX512 proves its square roots; the AVX2 and
// scalar paths also take a square root on the divider.
func BenchmarkRMSpropDivider(b *testing.B) {
	if !cpuSIMD {
		b.Skip("no SIMD kernel on this CPU")
	}
	for _, size := range rmspropBenchSizes {
		b.Run(size.name, func(b *testing.B) {
			dst, c := make([]float64, size.n), make([]float64, size.n)
			for i := range c {
				c[i] = 1 + float64(i%7)
			}
			b.SetBytes(5 * 8 * int64(size.n))
			for i := 0; i < b.N; i++ {
				divKernel(&dst[0], &c[0], size.n)
			}
			b.ReportMetric(float64(size.n)*float64(b.N)/b.Elapsed().Seconds()/1e6, "Mparams/s")
		})
	}
}

// Crafted square roots. With rho = 1 a step adds (0·g)·g = +0 to the
// cache, so each crafted c reaches the square root unchanged; with lr = 1,
// eps = 0 and p = 0 the step writes p = −g/√c, and g = √c·(2 − 2⁻²⁰) puts
// that quotient just below 2, where two square roots one ulp apart give
// quotients more than an ulp apart. A kernel that kept a wrong square
// root therefore writes a different p. Each value sits alone in a
// 15-value parameter of ones (8 lanes on the AVX-512 kernel, 4 on the
// AVX2 one, 3 on the scalar loop), at a position that cycles, so its lane
// alone decides whether its group falls back to VSQRTPD.
func TestRMSpropCraftedSquareRoots(t *testing.T) {
	rc := rmspropCase{lr: 1, rho: 1, eps: 0}
	add := func(pos int, c float64) {
		const n = 15
		cs, gs := slices.Repeat([]float64{1}, n), slices.Repeat([]float64{2 - 0x1p-20}, n)
		cs[pos%n] = c
		if s := math.Sqrt(c); s > 0 && !math.IsInf(s, 0) {
			gs[pos%n] = s * (2 - 0x1p-20)
		} else {
			gs[pos%n] = 1
		}
		rc.p, rc.g, rc.c = append(rc.p, make([]float64, n)), append(rc.g, gs), append(rc.c, cs)
	}
	for i, c := range craftedSquareRoots() {
		add(i, c)
	}
	// The specials at every position of the parameter.
	for _, c := range []float64{0, math.Copysign(0, -1), 5e-324, 0x1p-1022, 0x1p-1030 * 3, math.MaxFloat64,
		math.Inf(1), math.Inf(-1), math.NaN(), -1, -4, -0x1p-1074, -math.MaxFloat64} {
		for pos := range 15 {
			add(pos, c)
		}
	}
	checkRMSpropPaths(t, "crafted square roots", rc)
}

// craftedSquareRoots is the cache values the square-root proof is tested
// on: exact squares, squares of midpoints between neighbouring doubles and
// their neighbours, the corners where c − s² = ±s·ulp(s), and the edges of
// the proof's range, across the binades.
func craftedSquareRoots() []float64 {
	var cs []float64
	near := func(c float64, ulps int) {
		lo, hi := c, c
		for range ulps {
			lo, hi = math.Nextafter(lo, 0), math.Nextafter(hi, math.Inf(1))
			cs = append(cs, lo, hi)
		}
		cs = append(cs, c)
	}
	rng := rand.New(rand.NewSource(38))
	for e := -1074; e <= 1023; e += 11 {
		// 4ᵏ and k²·4ʲ: exact squares, whose roots are exact.
		cs = append(cs, math.Ldexp(1, e&^1))
		for k := 1; k <= 24; k++ {
			cs = append(cs, float64(k*k)*math.Ldexp(1, e&^1))
		}
		// RN((s + u/2)²) ± 2 ulps, for random s of the binade.
		for range 6 {
			s := math.Ldexp(1+rng.Float64(), e/2)
			u := math.Nextafter(s, math.Inf(1)) - s
			m := s + u/2 // not a double: its square is rounded twice
			near(m*m, 2)
			near(math.FMA(s, u, s*s), 2)
		}
		// s(s − u) for s = 2ᴱ(1 + 2⁻⁵²) and s(s + u) for the largest
		// mantissa: c − s² = ∓s·u exactly, both representable.
		s := math.Ldexp(1+0x1p-52, e/2)
		near(s*math.Ldexp(1, e/2), 1)
		s = math.Ldexp(2-0x1p-52, e/2)
		near(s*math.Ldexp(2, e/2), 1)
		// s = 2ᴱ: √c just below and above a power of two.
		near(math.Ldexp(1, e&^1), 3)
	}
	for _, edge := range []float64{0x1p-960, 0x1p1000, 0x1p-961, 0x1p999} {
		near(edge, 2)
	}
	// Squares past the largest double overflow; the specials cover +Inf.
	return slices.DeleteFunc(cs, func(c float64) bool { return math.IsInf(c, 0) })
}

// acceptsRoot mirrors rmspropKernelAVX512's acceptance test for one lane:
// R = c − s·s by one FMA, b = s·ulp(s), and s is kept when |R| < b, s has
// a non-zero mantissa and 2⁻⁹⁶⁰ ≤ c < 2¹⁰⁰⁰ (c = ±0 is kept as its own
// root).
func acceptsRoot(c, s float64) bool {
	if c == 0 {
		return s == c
	}
	const lo, span = 0x03F0000000000000, 0x7A80000000000000 // bits(2⁻⁹⁶⁰), bits(2¹⁰⁰⁰) − bits(2⁻⁹⁶⁰)
	bs := math.Float64bits(s)
	if math.Float64bits(c)-lo >= span || bs&(1<<52-1) == 0 {
		return false
	}
	u := math.Float64frombits(bs&0x7FF0000000000000 - 52<<52)
	return math.Abs(math.FMA(-s, s, c)) < s*u
}

// The proof accepts no candidate but RN(√c): over every crafted c, each
// candidate within 2 ulps of the true root, the corners where R = ±b, and
// roots just below a power of two, it accepts only math.Sqrt(c). It
// accepts the true root wherever the kernel can use it: in range, not a
// power of two and not on the R = b boundary.
func TestRMSpropRootProofAcceptsOnlyTheRoot(t *testing.T) {
	cs := craftedSquareRoots()
	rng := rand.New(rand.NewSource(39))
	for range 20_000 {
		cs = append(cs, math.Float64frombits(rng.Uint64()>>1), math.Ldexp(1+rng.Float64(), rng.Intn(2000)-1000))
	}
	var accepted, inRange, boundary int
	for _, c := range cs {
		want := math.Sqrt(c)
		lo, hi := want, want
		cands := []float64{want}
		for range 2 {
			lo, hi = math.Nextafter(lo, 0), math.Nextafter(hi, math.Inf(1))
			cands = append(cands, lo, hi)
		}
		for _, s := range cands {
			if acceptsRoot(c, s) && math.Float64bits(s) != math.Float64bits(want) {
				t.Fatalf("c = %v (%#x): the proof accepts %v, RN(√c) is %v", c, math.Float64bits(c), s, want)
			}
		}
		if c >= 0x1p-960 && c < 0x1p1000 && math.Float64bits(want)&(1<<52-1) != 0 {
			inRange++
			u := math.Nextafter(want, math.Inf(1)) - want
			if math.FMA(-want, want, c) == want*u {
				boundary++ // c − s² = s·u: RN(√c) = s, but the strict test falls back
			} else if !acceptsRoot(c, want) {
				t.Fatalf("c = %v (%#x): the proof refuses RN(√c) = %v", c, math.Float64bits(c), want)
			}
		}
		if acceptsRoot(c, want) {
			accepted++
		}
	}
	if boundary == 0 {
		t.Error("no crafted c has c − s² = s·ulp(s)")
	}
	t.Logf("%d of %d values accepted (%d in range, %d on the R = b boundary)", accepted, len(cs), inRange, boundary)
}
