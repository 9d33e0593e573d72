package dataset

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/tensor"
)

func TestGenerateImagesShape(t *testing.T) {
	d := GenerateImages("test", 10, 1, 14, 14, 200, 0.4, 1)
	if d.Len() != 200 || d.Dim() != 14*14 {
		t.Fatalf("len %d dim %d", d.Len(), d.Dim())
	}
	if len(d.SampleShape) != 3 || d.SampleShape[0] != 1 || d.SampleShape[1] != 14 {
		t.Fatalf("SampleShape = %v", d.SampleShape)
	}
	it := d.InputTensor()
	if it.Rank() != 4 || it.Dim(0) != 200 || it.Dim(2) != 14 {
		t.Fatalf("InputTensor shape %v", it.Shape())
	}
}

func TestGenerateImagesSpatialSmoothness(t *testing.T) {
	// Prototype images are upsampled coarse grids: adjacent pixels must be
	// far more correlated than in white noise.
	d := GenerateImages("smooth", 4, 1, 16, 16, 400, 0.1, 2)
	var adjacent, random float64
	n := 0
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < d.Len(); i++ {
		row := d.X.Data[i*256 : (i+1)*256]
		for k := 0; k < 20; k++ {
			p := rng.Intn(255)
			adjacent += math.Abs(row[p] - row[p+1])
			random += math.Abs(row[p] - row[rng.Intn(256)])
			n++
		}
	}
	if adjacent/float64(n) >= random/float64(n) {
		t.Fatalf("adjacent diff %v not below random diff %v", adjacent/float64(n), random/float64(n))
	}
}

func TestGenerateImagesSubsetPreservesShape(t *testing.T) {
	d := GenerateImages("test", 10, 2, 8, 8, 50, 0.3, 5)
	s := d.Subset([]int{0, 3, 7})
	if len(s.SampleShape) != 3 || s.SampleShape[0] != 2 {
		t.Fatalf("Subset lost SampleShape: %v", s.SampleShape)
	}
	c := Concat(s, s)
	if len(c.SampleShape) != 3 {
		t.Fatalf("Concat lost SampleShape: %v", c.SampleShape)
	}
}

func TestBatchesRespectSampleShape(t *testing.T) {
	d := GenerateImages("test", 4, 1, 8, 8, 30, 0.3, 6)
	d.Batches(7, rand.New(rand.NewSource(1)), func(x *tensor.Tensor, y []int) {
		if x.Rank() != 4 || x.Dim(1) != 1 || x.Dim(2) != 8 {
			t.Fatalf("batch shape %v", x.Shape())
		}
	})
}
