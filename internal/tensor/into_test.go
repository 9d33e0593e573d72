package tensor

import (
	"math"
	"math/rand"
	"slices"
	"testing"
)

func randTensor(rng *rand.Rand, shape ...int) *Tensor {
	t := New(shape...)
	for i := range t.Data {
		t.Data[i] = rng.NormFloat64()
	}
	return t
}

// full returns a tensor of the given shape with every element v.
func full(v float64, shape ...int) *Tensor {
	t := New(shape...)
	t.Fill(v)
	return t
}

// allClose reports whether a and b share a shape and agree within tol.
func allClose(a, b *Tensor, tol float64) bool {
	if !slices.Equal(a.Shape(), b.Shape()) {
		return false
	}
	for i, v := range a.Data {
		if math.Abs(v-b.Data[i]) > tol {
			return false
		}
	}
	return true
}

// matMul returns a·b through MatMulInto.
func matMul(a, b *Tensor) *Tensor {
	out := New(a.Dim(0), b.Dim(1))
	MatMulInto(out, a, b)
	return out
}

// transpose returns tᵀ for a matrix.
func transpose(t *Tensor) *Tensor {
	m, n := t.Dim(0), t.Dim(1)
	out := New(n, m)
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			out.Data[j*m+i] = t.Data[i*n+j]
		}
	}
	return out
}

// naiveMatMul is the reference every product kernel must match bit for
// bit: each element sums a[i,p]·b[p,j] for p ascending from +0, then adds
// its bias. Skipping zero products, as the kernels do, cannot change such
// a sum of finite terms.
func naiveMatMul(a, b, bias *Tensor) *Tensor {
	m, k, n := a.Dim(0), a.Dim(1), b.Dim(1)
	out := New(m, n)
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			s := 0.0
			for p := 0; p < k; p++ {
				s += a.Data[i*k+p] * b.Data[p*n+j]
			}
			if bias != nil {
				s += bias.Data[j]
			}
			out.Data[i*n+j] = s
		}
	}
	return out
}

// im2col lowers x through Im2ColInto into a fresh matrix.
func im2col(x *Tensor, kh, kw, stride, pad int) *Tensor {
	oh, ow, colW := im2ColDims(x, kh, kw, stride, pad)
	out := New(x.Dim(0)*oh*ow, colW)
	Im2ColInto(out, x, kh, kw, stride, pad)
	return out
}

func mustBitEqual(t *testing.T, name string, got, want *Tensor) {
	t.Helper()
	if !slices.Equal(got.Shape(), want.Shape()) {
		t.Fatalf("%s shape %v, want %v", name, got.Shape(), want.Shape())
	}
	for i := range want.Data {
		if math.Float64bits(got.Data[i]) != math.Float64bits(want.Data[i]) {
			t.Fatalf("%s[%d] = %v, want %v (bit mismatch)", name, i, got.Data[i], want.Data[i])
		}
	}
}

// Every product kernel must match naiveMatMul bit for bit.
func TestMatMulIntoVariantsBitEqual(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for _, dims := range [][3]int{{1, 1, 1}, {3, 5, 4}, {10, 48, 32}, {13, 7, 9}} {
		m, k, n := dims[0], dims[1], dims[2]
		a := randTensor(rng, m, k)
		b := randTensor(rng, k, n)
		// Inject zeros into both left operands so the skip branches are
		// exercised.
		for i := 0; i < len(a.Data); i += 3 {
			a.Data[i] = 0
		}
		dst := New(m, n)
		MatMulInto(dst, a, b)
		mustBitEqual(t, "MatMulInto", dst, naiveMatMul(a, b, nil))

		bias := randTensor(rng, n)
		MatMulBiasInto(dst, a, b, bias)
		mustBitEqual(t, "MatMulBiasInto", dst, naiveMatMul(a, b, bias))

		at := randTensor(rng, k, m)
		for i := 0; i < len(at.Data); i += 3 {
			at.Data[i] = 0
		}
		dstATB := New(m, n)
		MatMulATBInto(dstATB, at, b)
		mustBitEqual(t, "MatMulATBInto", dstATB, naiveMatMul(transpose(at), b, nil))

		bt := randTensor(rng, n, k)
		dstABT := New(m, n)
		MatMulABTInto(dstABT, a, bt)
		mustBitEqual(t, "MatMulABTInto", dstABT, naiveMatMul(a, transpose(bt), nil))

		MatMulABTBiasInto(dstABT, a, bt, bias)
		mustBitEqual(t, "MatMulABTBiasInto", dstABT, naiveMatMul(a, transpose(bt), bias))
	}
}

// Into kernels must fully overwrite stale destination contents.
func TestIntoOverwritesStaleData(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	a := randTensor(rng, 4, 6)
	b := randTensor(rng, 6, 5)
	dst := full(999, 4, 5)
	MatMulInto(dst, a, b)
	mustBitEqual(t, "MatMulInto stale", dst, matMul(a, b))

	x := randTensor(rng, 2, 3, 6, 6)
	cols := full(999, 2*6*6, 3*3*3)
	Im2ColInto(cols, x, 3, 3, 1, 1)
	mustBitEqual(t, "Im2ColInto stale", cols, im2col(x, 3, 3, 1, 1))

	img := full(999, 2, 3, 6, 6)
	fresh := New(2, 3, 6, 6)
	Col2ImInto(img, cols, 3, 3, 1, 1)
	Col2ImInto(fresh, cols, 3, 3, 1, 1)
	mustBitEqual(t, "Col2ImInto stale", img, fresh)
}

// MaxPool2DInto and MaxUnpool2DInto against a window-by-window reference,
// on stale destinations.
func TestMaxPoolIntoBitEqual(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	x := randTensor(rng, 2, 3, 8, 8)
	want, wantArg := New(2, 3, 4, 4), make([]int, 2*3*4*4)
	for o := range wantArg {
		plane, oy, ox := o/16, o%16/4, o%4
		best := plane*64 + oy*2*8 + ox*2
		for ky := 0; ky < 2; ky++ {
			for kx := 0; kx < 2; kx++ {
				if i := plane*64 + (oy*2+ky)*8 + ox*2 + kx; x.Data[i] > x.Data[best] {
					best = i
				}
			}
		}
		want.Data[o], wantArg[o] = x.Data[best], best
	}
	dst := full(-1, 2, 3, 4, 4)
	arg := MaxPool2DInto(dst, nil, x, 2, 2)
	mustBitEqual(t, "MaxPool2DInto", dst, want)
	for i := range wantArg {
		if arg[i] != wantArg[i] {
			t.Fatalf("arg[%d] = %d, want %d", i, arg[i], wantArg[i])
		}
	}
	grad := randTensor(rng, 2, 3, 4, 4)
	wantUn := New(2, 3, 8, 8)
	for i, g := range grad.Data {
		wantUn.Data[arg[i]] += g
	}
	un := full(999, 2, 3, 8, 8)
	MaxUnpool2DInto(un, grad, arg)
	mustBitEqual(t, "MaxUnpool2DInto", un, wantUn)
}

// serialAxpy is the reference implementation AxpySharded must match bit for
// bit: k outer (update order), elements inner.
func serialAxpy(dst []float64, coeffs []float64, srcs [][]float64) {
	for k, src := range srcs {
		c := coeffs[k]
		for i, v := range src {
			dst[i] = float64(c*v) + dst[i] // rounded product, as AxpySharded
		}
	}
}

func TestAxpyShardedBitEqualSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, n := range []int{1, 63, 1000, 1 << 16} {
		srcs := make([][]float64, 7)
		coeffs := make([]float64, 7)
		for k := range srcs {
			coeffs[k] = rng.Float64() * 10
			srcs[k] = make([]float64, n)
			for i := range srcs[k] {
				srcs[k][i] = rng.NormFloat64()
			}
		}
		want := make([]float64, n)
		serialAxpy(want, coeffs, srcs)
		got := make([]float64, n)
		AxpySharded(got, coeffs, srcs)
		for i := range want {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				t.Fatalf("n=%d: AxpySharded[%d] = %v, want %v", n, i, got[i], want[i])
			}
		}
	}
}

func TestAxpyShardedValidates(t *testing.T) {
	for name, fn := range map[string]func(){
		"arity": func() { AxpySharded(make([]float64, 3), []float64{1}, nil) },
		"len":   func() { AxpySharded(make([]float64, 3), []float64{1}, [][]float64{make([]float64, 2)}) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s mismatch must panic", name)
				}
			}()
			fn()
		}()
	}
}

func TestParallelChunksCoversRange(t *testing.T) {
	seen := make([]bool, 5000)
	ParallelChunks(len(seen), 1<<20, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			if seen[i] {
				t.Errorf("index %d visited twice", i)
			}
			seen[i] = true
		}
	})
	for i, v := range seen {
		if !v {
			t.Fatalf("index %d not visited", i)
		}
	}
	ParallelChunks(0, 0, func(lo, hi int) { t.Error("empty range must not call fn") })
}

func TestArgMaxRowsInto(t *testing.T) {
	m := fromSlice([]float64{1, 3, 2, 9, 0, -1}, 2, 3)
	out := make([]int, 2)
	m.ArgMaxRowsInto(out)
	if out[0] != 1 || out[1] != 0 {
		t.Fatalf("ArgMaxRowsInto = %v", out)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("wrong output length must panic")
		}
	}()
	m.ArgMaxRowsInto(make([]int, 3))
}
