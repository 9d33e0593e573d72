package dataset

import (
	"fmt"
	"hash/fnv"
	"math/rand"

	"repro/internal/tensor"
)

// GenerateImages produces an image-shaped synthetic dataset for the
// convolutional models (nn.NewPaperMNISTCNN): each class
// has a spatially smooth prototype image (a coarse random grid upsampled
// bilinearly, so nearby pixels correlate like real images) and samples are
// prototypes plus pixel noise. SampleShape is set to (channels, h, w) so
// flcore trains conv models on it directly.
func GenerateImages(name string, numClasses, channels, h, w, n int, noise float64, seed int64) *Dataset {
	if numClasses < 2 || channels < 1 || h < 4 || w < 4 {
		panic(fmt.Sprintf("dataset: bad image spec %d classes %dx%dx%d", numClasses, channels, h, w))
	}
	protos := imagePrototypes(name, numClasses, channels, h, w)
	rng := rand.New(rand.NewSource(seed))
	dim := channels * h * w
	x := tensor.New(n, dim)
	y := make([]int, n)
	for i := 0; i < n; i++ {
		c := i % numClasses
		row := x.Data[i*dim : (i+1)*dim]
		p := protos[c]
		for j := range row {
			row[j] = p[j] + noise*rng.NormFloat64()
		}
		y[i] = c
	}
	d := &Dataset{X: x, Y: y, NumClasses: numClasses, SampleShape: []int{channels, h, w}}
	return d.Subset(rng.Perm(n))
}

// imagePrototypes builds per-class smooth prototype images, deterministic
// in the dataset name so train/test splits share class geometry.
func imagePrototypes(name string, numClasses, channels, h, w int) [][]float64 {
	hh := fnv.New64a()
	hh.Write([]byte("img:" + name))
	rng := rand.New(rand.NewSource(int64(hh.Sum64())))
	const coarse = 4
	out := make([][]float64, numClasses)
	for c := range out {
		img := make([]float64, channels*h*w)
		for ch := 0; ch < channels; ch++ {
			grid := make([]float64, coarse*coarse)
			for i := range grid {
				grid[i] = rng.NormFloat64()
			}
			// Bilinear upsample the coarse grid to h×w.
			for yy := 0; yy < h; yy++ {
				fy := float64(yy) / float64(h-1) * float64(coarse-1)
				y0 := int(fy)
				y1 := y0 + 1
				if y1 >= coarse {
					y1 = coarse - 1
				}
				ty := fy - float64(y0)
				for xx := 0; xx < w; xx++ {
					fx := float64(xx) / float64(w-1) * float64(coarse-1)
					x0 := int(fx)
					x1 := x0 + 1
					if x1 >= coarse {
						x1 = coarse - 1
					}
					tx := fx - float64(x0)
					v := (1-ty)*((1-tx)*grid[y0*coarse+x0]+tx*grid[y0*coarse+x1]) +
						ty*((1-tx)*grid[y1*coarse+x0]+tx*grid[y1*coarse+x1])
					img[(ch*h+yy)*w+xx] = v
				}
			}
		}
		out[c] = img
	}
	return out
}
