package tensor

import (
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

func TestConvOutSize(t *testing.T) {
	cases := []struct{ in, k, s, p, want int }{
		{28, 3, 1, 0, 26},
		{28, 3, 1, 1, 28},
		{32, 5, 1, 2, 32},
		{26, 2, 2, 0, 13},
		{8, 3, 2, 0, 3},
	}
	for _, c := range cases {
		if got := ConvOutSize(c.in, c.k, c.s, c.p); got != c.want {
			t.Errorf("ConvOutSize(%d,%d,%d,%d) = %d, want %d", c.in, c.k, c.s, c.p, got, c.want)
		}
	}
}

func TestIm2ColIdentityKernel(t *testing.T) {
	// 1x1 kernel with stride 1 and no padding is a pure reshuffle.
	rng := rand.New(rand.NewSource(1))
	x := RandNormal(rng, 0, 1, 2, 3, 4, 4)
	cols := im2col(x, 1, 1, 1, 0)
	if cols.Dim(0) != 2*4*4 || cols.Dim(1) != 3 {
		t.Fatalf("Im2ColInto shape = %v", cols.Shape())
	}
	// Element (img=0, oy=1, ox=2, ch=1) must equal x[0,1,1,2].
	row := (0*4+1)*4 + 2
	if cols.Data[row*3+1] != x.Data[((0*3+1)*4+1)*4+2] {
		t.Fatal("Im2ColInto 1x1 mapping wrong")
	}
}

func TestIm2ColKnownValues(t *testing.T) {
	// 1 image, 1 channel, 3x3 input, 2x2 kernel, stride 1, no pad → 4 rows.
	x := fromSlice([]float64{
		1, 2, 3,
		4, 5, 6,
		7, 8, 9,
	}, 1, 1, 3, 3)
	cols := im2col(x, 2, 2, 1, 0)
	want := [][]float64{
		{1, 2, 4, 5},
		{2, 3, 5, 6},
		{4, 5, 7, 8},
		{5, 6, 8, 9},
	}
	for i, w := range want {
		row := cols.Data[i*4 : (i+1)*4]
		for j, v := range w {
			if row[j] != v {
				t.Fatalf("row %d = %v, want %v", i, row, w)
			}
		}
	}
}

func TestIm2ColPaddingZeros(t *testing.T) {
	x := fromSlice([]float64{1, 2, 3, 4}, 1, 1, 2, 2)
	cols := im2col(x, 3, 3, 1, 1) // padded 3x3 windows over 2x2 input
	if cols.Dim(0) != 4 || cols.Dim(1) != 9 {
		t.Fatalf("shape = %v", cols.Shape())
	}
	// First window (oy=0,ox=0) has top row and left column zero-padded.
	row := cols.Data[:9]
	want := []float64{0, 0, 0, 0, 1, 2, 0, 3, 4}
	for j, v := range want {
		if row[j] != v {
			t.Fatalf("padded row = %v, want %v", row, want)
		}
	}
}

// Property: Col2ImInto(Im2ColInto(x)) with a 1x1 kernel reproduces x
// exactly.
func TestCol2ImAdjointOfIm2Col(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n, c := 1+r.Intn(2), 1+r.Intn(3)
		h := 3 + r.Intn(4)
		w := 3 + r.Intn(4)
		x := RandNormal(r, 0, 1, n, c, h, w)
		back := New(n, c, h, w)
		Col2ImInto(back, im2col(x, 1, 1, 1, 0), 1, 1, 1, 0)
		return allClose(back, x, 1e-12)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// Property: the adjoint identity <Im2Col(x), y> == <x, Col2Im(y)> holds for
// random x, y — this is exactly what makes the conv backward pass correct.
func TestIm2ColCol2ImAdjointIdentity(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n, c, h, w := 1, 1+r.Intn(2), 4+r.Intn(3), 4+r.Intn(3)
		kh, kw := 2, 2
		pad := r.Intn(2)
		x := RandNormal(r, 0, 1, n, c, h, w)
		cols := im2col(x, kh, kw, 1, pad)
		y := RandNormal(r, 0, 1, cols.Dim(0), cols.Dim(1))
		back := New(n, c, h, w)
		Col2ImInto(back, y, kh, kw, 1, pad)
		lhs, rhs := dot(cols, y), dot(x, back)
		return absf(lhs-rhs) < 1e-9*(1+absf(lhs))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// dot is the inner product of two same-size tensors.
func dot(a, b *Tensor) float64 {
	s := 0.0
	for i, v := range a.Data {
		s += v * b.Data[i]
	}
	return s
}

func absf(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

func TestMaxPool2DKnown(t *testing.T) {
	x := fromSlice([]float64{
		1, 2, 5, 6,
		3, 4, 7, 8,
		9, 10, 13, 14,
		11, 12, 15, 16,
	}, 1, 1, 4, 4)
	out := New(1, 1, 2, 2)
	arg := MaxPool2DInto(out, nil, x, 2, 2)
	want := []float64{4, 8, 12, 16}
	for i, v := range want {
		if out.Data[i] != v {
			t.Fatalf("MaxPool2DInto = %v, want %v", out.Data, want)
		}
	}
	// Gradient routed back through argmax positions only.
	g := fromSlice([]float64{1, 1, 1, 1}, 1, 1, 2, 2)
	back := New(1, 1, 4, 4)
	MaxUnpool2DInto(back, g, arg)
	if mass := dot(back, full(1, 1, 1, 4, 4)); mass != 4 {
		t.Fatalf("unpooled gradient mass = %v, want 4", mass)
	}
	if back.Data[1*4+1] != 1 || back.Data[0] != 0 {
		t.Fatal("gradient routed to wrong positions")
	}
}

func TestMaxPoolPreservesMax(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		x := RandNormal(r, 0, 1, 1, 2, 4, 4)
		out := New(1, 2, 2, 2)
		MaxPool2DInto(out, nil, x, 2, 2)
		return slices.Max(out.Data) == slices.Max(x.Data)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestIm2ColBadRankPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Im2ColInto on rank-2 input did not panic")
		}
	}()
	Im2ColInto(New(4, 4), New(3, 3), 2, 2, 1, 0)
}

// The pad == 0 lowering paths against the general ones, bit for bit, on
// stale destinations: every shape, kernel and stride the general loops take.
func TestConvValidPathsBitEqual(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 40; trial++ {
		n, c := 1+rng.Intn(2), 1+rng.Intn(3)
		h, w := 3+rng.Intn(6), 3+rng.Intn(6)
		kh, kw, stride := 1+rng.Intn(3), 1+rng.Intn(3), 1+rng.Intn(2)
		x := randTensor(rng, n, c, h, w)
		oh, ow, colW := im2ColDims(x, kh, kw, stride, 0)
		got, want := full(999, n*oh*ow, colW), full(-999, n*oh*ow, colW)
		im2ColValid(got, x, kh, kw, stride, oh, ow)
		im2ColInto(want, x, kh, kw, stride, 0, oh, ow)
		mustBitEqual(t, "im2ColValid", got, want)

		cols := randTensor(rng, n*oh*ow, colW)
		cols.Data[0] = math.Copysign(0, -1)
		gotImg, wantImg := New(n, c, h, w), New(n, c, h, w)
		col2ImValid(gotImg, cols, n, c, h, w, kh, kw, stride, oh, ow)
		col2ImInto(wantImg, cols, n, c, h, w, kh, kw, stride, 0, oh, ow)
		mustBitEqual(t, "col2ImValid", gotImg, wantImg)
	}
}
