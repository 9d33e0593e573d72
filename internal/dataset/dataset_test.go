package dataset

import (
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/tensor"
)

func TestGenerateBasics(t *testing.T) {
	d := Generate(MNISTLike, 200, 1)
	if d.Len() != 200 {
		t.Fatalf("Len = %d", d.Len())
	}
	if d.Dim() != MNISTLike.Dim {
		t.Fatalf("Dim = %d", d.Dim())
	}
	for c, idx := range d.ClassIndices() {
		if len(idx) != 20 {
			t.Fatalf("class %d count = %d, want 20 (uniform)", c, len(idx))
		}
	}
}

func TestGenerateDeterministic(t *testing.T) {
	a := Generate(CIFAR10Like, 50, 7)
	b := Generate(CIFAR10Like, 50, 7)
	if !slices.Equal(a.X.Data, b.X.Data) {
		t.Fatal("Generate not deterministic")
	}
	c := Generate(CIFAR10Like, 50, 8)
	if slices.Equal(a.X.Data, c.X.Data) {
		t.Fatal("different seeds must differ")
	}
}

func TestPrototypesSharedAcrossSplits(t *testing.T) {
	// Train and test generated with different seeds must still be mutually
	// predictive: a nearest-prototype classifier fit on train should beat
	// chance on test by a wide margin.
	train := Generate(MNISTLike, 500, 1)
	test := Generate(MNISTLike, 500, 2)
	dim := train.Dim()
	// class means from train
	means := make([][]float64, train.NumClasses)
	counts := make([]int, train.NumClasses)
	for i := range means {
		means[i] = make([]float64, dim)
	}
	for i, y := range train.Y {
		counts[y]++
		row := train.X.Data[i*dim : (i+1)*dim]
		for j, v := range row {
			means[y][j] += v
		}
	}
	for c := range means {
		for j := range means[c] {
			means[c][j] /= float64(counts[c])
		}
	}
	correct := 0
	for i, y := range test.Y {
		row := test.X.Data[i*dim : (i+1)*dim]
		best, bestD := -1, math.Inf(1)
		for c := range means {
			s := 0.0
			for j, v := range row {
				dv := v - means[c][j]
				s += dv * dv
			}
			if s < bestD {
				best, bestD = c, s
			}
		}
		if best == y {
			correct++
		}
	}
	acc := float64(correct) / float64(test.Len())
	if acc < 0.5 {
		t.Fatalf("cross-split nearest-mean accuracy = %v, want ≥0.5 (chance 0.1)", acc)
	}
}

func TestSubsetCopies(t *testing.T) {
	d := Generate(MNISTLike, 20, 3)
	s := d.Subset([]int{0, 5, 7})
	if s.Len() != 3 || s.Y[1] != d.Y[5] {
		t.Fatalf("Subset labels wrong")
	}
	s.X.Data[0] = 999
	if d.X.Data[0] == 999 {
		t.Fatal("Subset must copy data")
	}
}

func TestConcat(t *testing.T) {
	a := Generate(MNISTLike, 10, 1)
	b := Generate(MNISTLike, 15, 2)
	c := Concat(a, b)
	if c.Len() != 25 {
		t.Fatalf("Concat len = %d", c.Len())
	}
	if c.Y[10] != b.Y[0] {
		t.Fatal("Concat order wrong")
	}
}

func TestBatchesCoverAllOnce(t *testing.T) {
	d := Generate(MNISTLike, 53, 5)
	seen := 0
	d.Batches(10, rand.New(rand.NewSource(1)), func(x *tensor.Tensor, y []int) {
		seen += len(y)
		if x.Dim(0) != len(y) {
			t.Fatalf("batch shape %v vs %d labels", x.Shape(), len(y))
		}
	})
	if seen != 53 {
		t.Fatalf("batches covered %d samples, want 53", seen)
	}
}

func TestPartitionIIDDisjointComplete(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 10 + r.Intn(200)
		clients := 1 + r.Intn(10)
		parts := PartitionIID(n, clients, r)
		return checkDisjointComplete(parts, n) && sizesBalanced(parts, 1)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func checkDisjointComplete(parts [][]int, n int) bool {
	seen := make(map[int]bool)
	total := 0
	for _, p := range parts {
		for _, i := range p {
			if i < 0 || i >= n || seen[i] {
				return false
			}
			seen[i] = true
			total++
		}
	}
	return total == n
}

func sizesBalanced(parts [][]int, slack int) bool {
	minS, maxS := len(parts[0]), len(parts[0])
	for _, p := range parts {
		if len(p) < minS {
			minS = len(p)
		}
		if len(p) > maxS {
			maxS = len(p)
		}
	}
	return maxS-minS <= slack
}

func TestPartitionByClassRestrictsClasses(t *testing.T) {
	d := Generate(CIFAR10Like, 1000, 6)
	for _, k := range []int{2, 5, 10} {
		parts := PartitionByClass(d, 10, k, rand.New(rand.NewSource(1)))
		for c, p := range parts {
			classes := Classes(d, p)
			if len(classes) > k {
				t.Fatalf("k=%d: client %d sees %d classes", k, c, len(classes))
			}
			if len(p) == 0 {
				t.Fatalf("k=%d: client %d empty", k, c)
			}
		}
		// All classes covered across population.
		covered := make(map[int]bool)
		for _, p := range parts {
			for _, cl := range Classes(d, p) {
				covered[cl] = true
			}
		}
		if len(covered) != d.NumClasses {
			t.Fatalf("k=%d: only %d/%d classes covered", k, len(covered), d.NumClasses)
		}
	}
}

func TestPartitionByClassEqualSizes(t *testing.T) {
	d := Generate(CIFAR10Like, 1000, 7)
	parts := PartitionByClass(d, 10, 5, rand.New(rand.NewSource(2)))
	want := len(parts[0])
	for _, p := range parts {
		if len(p) != want {
			t.Fatalf("unequal client sizes: %d vs %d", len(p), want)
		}
	}
}

func TestPartitionQuantityFractions(t *testing.T) {
	n := 10000
	parts := PartitionQuantity(n, 50, QuantityFractions, rand.New(rand.NewSource(1)))
	perGroup := 10
	for gi, f := range QuantityFractions {
		got := 0
		for c := 0; c < perGroup; c++ {
			got += len(parts[gi*perGroup+c])
		}
		want := f * float64(n)
		if math.Abs(float64(got)-want) > want*0.02+float64(perGroup) {
			t.Fatalf("group %d received %d samples, want ≈%v", gi, got, want)
		}
	}
	// Within a group, clients are equal.
	for gi := range QuantityFractions {
		first := len(parts[gi*perGroup])
		for c := 1; c < perGroup; c++ {
			if len(parts[gi*perGroup+c]) != first {
				t.Fatalf("group %d unequal within group", gi)
			}
		}
	}
}

func TestPartitionQuantityBadFracsPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("fractions summing to 2 did not panic")
		}
	}()
	PartitionQuantity(100, 10, []float64{1, 1}, rand.New(rand.NewSource(1)))
}

func TestPartitionClassQuantityCombines(t *testing.T) {
	d := Generate(CIFAR10Like, 5000, 9)
	parts := PartitionClassQuantity(d, 50, 5, QuantityFractions, rand.New(rand.NewSource(1)))
	perGroup := 10
	// Class restriction holds.
	for c, p := range parts {
		if got := len(Classes(d, p)); got > 5 {
			t.Fatalf("client %d holds %d classes", c, got)
		}
	}
	// Group 4 (30%) clients hold ~3x the data of group 0 (10%) clients.
	g0 := len(parts[0])
	g4 := len(parts[4*perGroup])
	ratio := float64(g4) / float64(g0)
	if ratio < 2.4 || ratio > 3.6 {
		t.Fatalf("quantity ratio group4/group0 = %v, want ≈3", ratio)
	}
}

func TestTestSubsetForClasses(t *testing.T) {
	d := Generate(CIFAR10Like, 500, 10)
	sub := TestSubsetForClasses(d, []int{0, 1}, 30, rand.New(rand.NewSource(1)))
	if sub.Len() == 0 || sub.Len() > 30 {
		t.Fatalf("subset len = %d", sub.Len())
	}
	for _, y := range sub.Y {
		if y != 0 && y != 1 {
			t.Fatalf("subset contains class %d", y)
		}
	}
}

func TestApplyFeatureSkewShiftsMean(t *testing.T) {
	d := Generate(MNISTLike, 300, 11)
	sum := func() (s float64) {
		for _, v := range d.X.Data {
			s += v
		}
		return s
	}
	before := sum()
	ApplyFeatureSkew(d, rand.New(rand.NewSource(42)), 2.0)
	after := sum()
	if math.Abs(after-before) < 1e-6 {
		t.Fatal("feature skew had no effect")
	}
}

func TestClassIndicesConsistent(t *testing.T) {
	d := Generate(MNISTLike, 100, 12)
	by := d.ClassIndices()
	total := 0
	for c, idx := range by {
		total += len(idx)
		for _, i := range idx {
			if d.Y[i] != c {
				t.Fatalf("ClassIndices wrong: row %d has class %d, listed under %d", i, d.Y[i], c)
			}
		}
	}
	if total != d.Len() {
		t.Fatalf("ClassIndices covers %d rows, want %d", total, d.Len())
	}
}
