package tensor

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestNewShapeAndSize(t *testing.T) {
	x := New(2, 3, 4)
	if x.Size() != 24 {
		t.Fatalf("Size = %d, want 24", x.Size())
	}
	if x.Rank() != 3 {
		t.Fatalf("Rank = %d, want 3", x.Rank())
	}
	for i, d := range []int{2, 3, 4} {
		if x.Dim(i) != d {
			t.Fatalf("Dim(%d) = %d, want %d", i, x.Dim(i), d)
		}
	}
	for _, v := range x.Data {
		if v != 0 {
			t.Fatalf("New tensor not zero-filled: %v", v)
		}
	}
}

func TestNewNegativeDimPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("New with negative dim did not panic")
		}
	}()
	New(2, -1)
}

// fromSlice wraps data, not copied, as a tensor of the given shape.
func fromSlice(data []float64, shape ...int) *Tensor { return AliasSlice(nil, data, shape) }

func TestReshapeSharesData(t *testing.T) {
	x := fromSlice([]float64{1, 2, 3, 4, 5, 6}, 2, 3)
	y := x.Reshape(3, 2)
	y.Data[0] = 99
	if x.Data[0] != 99 {
		t.Fatal("Reshape does not share data")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Reshape to wrong size did not panic")
		}
	}()
	x.Reshape(4, 2)
}

func TestCloneIndependent(t *testing.T) {
	x := fromSlice([]float64{1, 2}, 2)
	y := x.Clone()
	y.Data[0] = 42
	if x.Data[0] != 1 {
		t.Fatal("Clone shares data with original")
	}
}

func TestInPlaceOps(t *testing.T) {
	a := fromSlice([]float64{1, 2}, 2)
	b := fromSlice([]float64{10, 20}, 2)
	a.AxpyInPlace(0.5, b)
	if a.Data[0] != 6 || a.Data[1] != 12 {
		t.Fatalf("AxpyInPlace = %v", a.Data)
	}
}

func TestMatMulSmall(t *testing.T) {
	a := fromSlice([]float64{1, 2, 3, 4}, 2, 2)
	b := fromSlice([]float64{5, 6, 7, 8}, 2, 2)
	c := matMul(a, b)
	want := []float64{19, 22, 43, 50}
	for i, v := range want {
		if c.Data[i] != v {
			t.Fatalf("MatMulInto = %v, want %v", c.Data, want)
		}
	}
}

func TestMatMulIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	a := RandNormal(rng, 0, 1, 7, 7)
	id := New(7, 7)
	for i := 0; i < 7; i++ {
		id.Data[i*7+i] = 1
	}
	if !allClose(matMul(a, id), a, 1e-12) || !allClose(matMul(id, a), a, 1e-12) {
		t.Fatal("identity is not neutral for MatMulInto")
	}
}

func TestMatMulMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MatMulInto with mismatched inner dims did not panic")
		}
	}()
	MatMulInto(New(2, 2), New(2, 3), New(4, 2))
}

func TestMatMulIntoReuses(t *testing.T) {
	a := fromSlice([]float64{1, 2, 3, 4}, 2, 2)
	b := fromSlice([]float64{1, 0, 0, 1}, 2, 2)
	dst := full(7, 2, 2)
	MatMulInto(dst, a, b)
	if !allClose(dst, a, 0) {
		t.Fatalf("MatMulInto = %v", dst.Data)
	}
}

func TestMatMulParallelMatchesSerial(t *testing.T) {
	// Large enough to cross parallelThreshold.
	rng := rand.New(rand.NewSource(2))
	a := RandNormal(rng, 0, 1, 80, 70)
	b := RandNormal(rng, 0, 1, 70, 90)
	if !allClose(matMul(a, b), naiveMatMul(a, b, nil), 1e-9) {
		t.Fatal("parallel MatMulInto disagrees with naive triple loop")
	}
}

func TestTransposedVariants(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	a := RandNormal(rng, 0, 1, 5, 8)
	b := RandNormal(rng, 0, 1, 5, 6)
	atb := New(8, 6)
	MatMulATBInto(atb, a, b)
	if !allClose(atb, matMul(transpose(a), b), 1e-10) {
		t.Fatal("MatMulATBInto != Aᵀ·B")
	}
	c := RandNormal(rng, 0, 1, 4, 8)
	abt := New(5, 4)
	MatMulABTInto(abt, a, c)
	if !allClose(abt, matMul(a, transpose(c)), 1e-10) {
		t.Fatal("MatMulABTInto != A·Bᵀ")
	}
}

// Property: (A·B)·C == A·(B·C) for random matrices.
func TestMatMulAssociativityProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		m, k, n, q := 1+r.Intn(6), 1+r.Intn(6), 1+r.Intn(6), 1+r.Intn(6)
		a := RandNormal(r, 0, 1, m, k)
		b := RandNormal(r, 0, 1, k, n)
		c := RandNormal(r, 0, 1, n, q)
		left := matMul(matMul(a, b), c)
		right := matMul(a, matMul(b, c))
		return allClose(left, right, 1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50, Rand: rng}); err != nil {
		t.Fatal(err)
	}
}

func TestRandDeterminism(t *testing.T) {
	a := RandNormal(rand.New(rand.NewSource(7)), 0, 1, 10)
	b := RandNormal(rand.New(rand.NewSource(7)), 0, 1, 10)
	if !allClose(a, b, 0) {
		t.Fatal("RandNormal not deterministic for fixed seed")
	}
}

func TestGlorotUniformBounds(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	fanIn, fanOut := 20, 30
	limit := math.Sqrt(6.0 / float64(fanIn+fanOut))
	x := GlorotUniform(rng, fanIn, fanOut, 1000)
	for _, v := range x.Data {
		if v < -limit || v >= limit {
			t.Fatalf("Glorot sample %v outside [-%v, %v)", v, limit, limit)
		}
	}
}
