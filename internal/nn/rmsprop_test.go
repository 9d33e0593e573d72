package nn

import (
	"encoding/binary"
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/tensor"
)

// RMSprop.Step's AVX2 kernel against its scalar loop: every case runs on
// both paths by flipping useSIMD, three steps in a row, with the state
// drawn from a pool and without, and every parameter and cache value must
// come out with the same bits after every step. NaNs compare as NaN-ness:
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

// simdOnly skips a test the CPU has no kernel for and restores useSIMD
// when it ends.
func simdOnly(t testing.TB) {
	if !useSIMD {
		t.Skip("no SIMD kernel on this CPU")
	}
	t.Cleanup(func() { useSIMD = true })
}

// checkRMSpropPaths steps rc three times on each path, pooled and not, and
// fails at the first parameter or cache value the two paths disagree on.
func checkRMSpropPaths(t testing.TB, name string, rc rmspropCase) {
	t.Helper()
	for _, pooled := range []bool{false, true} {
		var pool *tensor.Pool
		if pooled {
			pool = new(tensor.Pool)
		}
		scalar, simd := rc.start(pool), rc.start(pool)
		for step := 1; step <= 3; step++ {
			useSIMD = false
			scalar.opt.Step(scalar.params, scalar.grads)
			useSIMD = true
			simd.opt.Step(simd.params, simd.grads)
			for i := range scalar.params {
				want, got := scalar.params[i].Data, simd.params[i].Data
				wantC, gotC := scalar.opt.cache.bufs[i], simd.opt.cache.bufs[i]
				for j := range want {
					if !sameValue(got[j], want[j]) || !sameValue(gotC[j], wantC[j]) {
						t.Fatalf("%s, pooled %v, step %d, parameter %d[%d] of %d: SIMD p %v c %v, scalar p %v c %v",
							name, pooled, step, i, j, len(want), got[j], gotC[j], want[j], wantC[j])
					}
				}
			}
		}
		if pooled {
			scalar.opt.ReleaseState()
			simd.opt.ReleaseState()
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
	simdOnly(t)
	rng := rand.New(rand.NewSource(35))
	for n := 0; n <= 17; n++ {
		checkRMSpropPaths(t, "one parameter", rmspropLayers(rng, false, n))
		checkRMSpropPaths(t, "one parameter, warm cache", rmspropLayers(rng, true, n))
	}
	checkRMSpropPaths(t, "mixed lengths", rmspropLayers(rng, true, 5, 0, 17, 4, 1, 34_186, 3, 8))
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
	simdOnly(t)
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
	simd := useSIMD
	defer func() { useSIMD = simd }()
	for _, tc := range []struct {
		name   string
		np, ng int // the Step's parameter and gradient lengths; the state has 9
	}{
		{name: "short gradient", np: 9, ng: 5},
		{name: "short gradient, one lane group", np: 9, ng: 4},
		{name: "long gradient", np: 9, ng: 12},
		{name: "short parameter", np: 5, ng: 9},
		{name: "short parameter and gradient", np: 4, ng: 4},
	} {
		for _, on := range []bool{false, true} {
			if on && !simd {
				continue
			}
			useSIMD = on
			rc := paperRMSprop([][]float64{make([]float64, 9)}, [][]float64{make([]float64, 9)}, nil)
			r := rc.start(nil)
			r.params[0] = tensor.New(tc.np)
			r.grads[0] = tensor.New(tc.ng)
			func() {
				defer func() {
					if recover() == nil {
						t.Errorf("%s, SIMD %v: Step did not panic", tc.name, on)
					}
				}()
				r.opt.Step(r.params, r.grads)
			}()
		}
	}
}

// A warmed Step allocates nothing, on either path, pooled or not.
func TestRMSpropStepAllocs(t *testing.T) {
	simd := useSIMD
	defer func() { useSIMD = simd }()
	rc := rmspropLayers(rand.New(rand.NewSource(37)), false, 34_186, 13, 128)
	for _, on := range []bool{false, true} {
		if on && !simd {
			continue
		}
		useSIMD = on
		for _, pool := range []*tensor.Pool{nil, new(tensor.Pool)} {
			r := rc.start(pool)
			if got := testing.AllocsPerRun(20, func() { r.opt.Step(r.params, r.grads) }); got != 0 {
				t.Errorf("SIMD %v, pooled %v: Step allocates %v times, want 0", on, pool != nil, got)
			}
		}
	}
}

// FuzzRMSpropStep holds both paths equal on raw float64 bit patterns of p,
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
	f.Fuzz(func(t *testing.T, data []byte, lr, rho, eps float64) {
		if !useSIMD {
			t.Skip("no SIMD kernel on this CPU")
		}
		defer func() { useSIMD = true }()
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
// and the paper CNN's 225 034, on both paths. SetBytes counts the five
// streams a step moves per parameter (p, g and c read; p and c written),
// so its MB/s reads against BenchmarkRMSpropCopy, the memory ceiling, and
// its ns/op against BenchmarkRMSpropDivider, the divider ceiling; the
// M params/s metric is what the benchmark's nn.rmsprop_mparams_s probes.
func BenchmarkRMSpropStep(b *testing.B) {
	simd := useSIMD
	defer func() { useSIMD = simd }()
	for _, size := range rmspropBenchSizes {
		rc := rmspropLayers(rand.New(rand.NewSource(1)), false, size.n)
		for _, on := range []bool{false, true} {
			b.Run(size.name+"/"+map[bool]string{false: "scalar", true: "simd"}[on], func(b *testing.B) {
				if on && !simd {
					b.Skip("no SIMD kernel on this CPU")
				}
				useSIMD = on
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

// BenchmarkRMSpropDivider is the divider ceiling: only the step's square
// root and division per parameter, four lanes at a time (divKernel), with
// the bytes of a step counted as in BenchmarkRMSpropStep.
func BenchmarkRMSpropDivider(b *testing.B) {
	simdOnly(b)
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
