package tensor

import (
	"math/rand"
	"sync"
	"testing"
)

func TestPoolGetTensorRoundTrip(t *testing.T) {
	var p Pool
	a := p.GetTensor(4, 8)
	if a.Dim(0) != 4 || a.Dim(1) != 8 || a.Size() != 32 {
		t.Fatalf("GetTensor shape = %v", a.Shape())
	}
	for i := range a.Data {
		a.Data[i] = float64(i)
	}
	p.PutTensor(a)
	b := p.GetTensorZeroed(64)
	for i, v := range b.Data {
		if v != 0 {
			t.Fatalf("GetTensorZeroed[%d] = %v, want 0", i, v)
		}
	}
}

func TestPoolReusesStorage(t *testing.T) {
	var p Pool
	// Outside -race one miss fails; under it (see raceEnabled) one reuse in
	// 20 attempts must happen.
	attempts := 1
	if raceEnabled {
		attempts = 20
	}
	for attempt := 0; attempt < attempts; attempt++ {
		a := p.GetTensor(100)
		data := &a.Data[:cap(a.Data)][0]
		p.PutTensor(a)
		b := p.GetTensor(70) // same bucket (128)
		if &b.Data[:cap(b.Data)][0] != data {
			continue
		}
		if len(b.Data) != 70 {
			t.Fatalf("reused length = %d, want 70", len(b.Data))
		}
		return
	}
	t.Fatal("pool did not reuse the returned buffer")
}

// A miss allocates exactly the request: no rounding up to a size class.
func TestPoolFreshTensorHasExactCapacity(t *testing.T) {
	var p Pool
	for _, shape := range [][]int{{1}, {70}, {100, 3}, {392000}} {
		g := p.GetTensor(shape...)
		if n := g.Size(); len(g.Data) != n || cap(g.Data) != n {
			t.Fatalf("GetTensor(%v) on an empty pool: len %d cap %d, want both %d", shape, len(g.Data), cap(g.Data), n)
		}
	}
}

// A request takes the smallest held buffer that covers it, leaving the
// larger ones for larger requests, and allocates when none covers it.
func TestPoolReusesSmallestCoveringBuffer(t *testing.T) {
	var p Pool
	held := map[int]*float64{}
	var out []*Tensor
	for _, n := range []int{300, 50, 120, 800} {
		g := p.GetTensor(n)
		held[n] = &g.Data[:1][0]
		out = append(out, g)
	}
	for _, g := range out {
		p.PutTensor(g)
	}
	for _, c := range []struct{ n, from int }{{100, 120}, {100, 300}, {10, 50}, {700, 800}} {
		g := p.GetTensor(c.n)
		if &g.Data[:1][0] != held[c.from] || cap(g.Data) != c.from || len(g.Data) != c.n {
			t.Fatalf("GetTensor(%d): cap %d, want the held %d-element buffer", c.n, cap(g.Data), c.from)
		}
	}
	if g := p.GetTensor(10); cap(g.Data) != 10 {
		t.Fatalf("GetTensor(10) on an emptied pool: cap %d, want 10", cap(g.Data))
	}
}

func TestPoolSliceRoundTrip(t *testing.T) {
	var p Pool
	s := p.GetTensor(200)
	if len(s.Data) != 200 {
		t.Fatalf("GetTensor length = %d", len(s.Data))
	}
	p.PutTensor(s)
	if r := p.GetTensor(150); len(r.Data) != 150 {
		t.Fatalf("GetTensor after PutTensor: length %d", len(r.Data))
	}
	p.PutTensor(nil) // no-op
}

func TestPoolForeignSliceBucketedByCapacity(t *testing.T) {
	var p Pool
	p.PutTensor(&Tensor{Data: make([]float64, 100, 100)}) // not a power of two
	// 100 cap covers bucket 64 fully: a 64-element GetTensor must fit.
	if g := p.GetTensor(64); len(g.Data) != 64 {
		t.Fatalf("GetTensor(64) length = %d", len(g.Data))
	}
}

func TestAliasViewSharesData(t *testing.T) {
	src := fromSlice([]float64{1, 2, 3, 4, 5, 6}, 2, 3)
	v := AliasView(nil, src, []int{3, 2})
	if v.Dim(0) != 3 || v.Dim(1) != 2 {
		t.Fatalf("view shape = %v", v.Shape())
	}
	v.Data[0] = 42
	if src.Data[0] != 42 {
		t.Fatal("view must share storage")
	}
	// Reusing the header must not allocate a new one.
	v2 := AliasView(v, src, []int{6})
	if v2 != v {
		t.Fatal("AliasView must reuse the provided header")
	}
}

func TestAliasViewSizeMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("size mismatch must panic")
		}
	}()
	AliasView(nil, New(4), []int{3})
}

// TestPoolConcurrentStress hammers one shared pool from many goroutines
// under -race: distinct Get results must never alias while owned.
func TestPoolConcurrentStress(t *testing.T) {
	var p Pool
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			for it := 0; it < 300; it++ {
				n := 1 + rng.Intn(500)
				tt := p.GetTensor(n)
				for i := range tt.Data {
					tt.Data[i] = float64(g)
				}
				for _, v := range tt.Data {
					if v != float64(g) {
						t.Errorf("goroutine %d saw foreign write %v", g, v)
						return
					}
				}
				p.PutTensor(tt)
			}
		}(g)
	}
	wg.Wait()
}
