// Package dataset provides the synthetic datasets and federated partitioners
// used to reproduce the TiFL evaluation offline.
//
// The paper trains on MNIST, Fashion-MNIST, CIFAR-10 and FEMNIST. Those
// images are unavailable in this offline reproduction, so we substitute
// class-conditional Gaussian feature datasets with the same class counts
// (see docs/ARCHITECTURE.md): each class has one or more prototype vectors and
// samples are prototypes plus noise. What the paper's experiments measure —
// convergence per round, accuracy loss from class-skewed (non-IID) clients,
// and accuracy loss from data-poor tiers — depends on the *partitioning* of
// data across clients, which this package reproduces exactly: IID,
// non-IID(k) equal-class partitions, McMahan-style shard partitions, and the
// 10/15/20/25/30% data-quantity split.
package dataset

import (
	"fmt"
	"hash/fnv"
	"math/rand"

	"repro/internal/tensor"
)

// Dataset is a labeled feature dataset. X has shape (N, Dim); Y holds the
// integer class of each row. When SampleShape is set (e.g. [1 14 14] for
// image data), InputTensor and Batches present rows reshaped to
// (N, SampleShape...) so convolutional models consume them directly; the
// flat layout stays canonical for subsetting and aggregation.
type Dataset struct {
	X           *tensor.Tensor
	Y           []int
	NumClasses  int
	SampleShape []int
}

// InputTensor returns X shaped for model input: (N, Dim) for flat data,
// (N, SampleShape...) otherwise. The returned tensor shares X's storage.
func (d *Dataset) InputTensor() *tensor.Tensor {
	if len(d.SampleShape) == 0 {
		return d.X
	}
	shape := append([]int{d.Len()}, d.SampleShape...)
	return d.X.Reshape(shape...)
}

// Len returns the number of samples.
func (d *Dataset) Len() int { return len(d.Y) }

// Dim returns the feature dimension.
func (d *Dataset) Dim() int {
	if d.X.Rank() != 2 {
		panic(fmt.Sprintf("dataset: X has shape %v, want rank 2", d.X.Shape()))
	}
	return d.X.Dim(1)
}

// Subset returns a new dataset holding copies of the rows at idx.
func (d *Dataset) Subset(idx []int) *Dataset {
	dim := d.Dim()
	x := tensor.New(len(idx), dim)
	y := make([]int, len(idx))
	for i, j := range idx {
		copy(x.Data[i*dim:(i+1)*dim], d.X.Data[j*dim:(j+1)*dim])
		y[i] = d.Y[j]
	}
	return &Dataset{X: x, Y: y, NumClasses: d.NumClasses, SampleShape: d.SampleShape}
}

// permute reorders d's rows in place into the order Subset(perm) copies
// them in — row i becomes the row at perm[i] — following perm's cycles with
// one row of temporary storage instead of a second copy of the data.
func (d *Dataset) permute(perm []int) {
	dim := d.Dim()
	x := d.X.Data
	row := make([]float64, dim)
	done := make([]bool, len(perm))
	for start := range perm {
		if done[start] {
			continue
		}
		copy(row, x[start*dim:(start+1)*dim])
		label := d.Y[start]
		i := start
		for j := perm[i]; j != start; i, j = j, perm[j] {
			done[i] = true
			copy(x[i*dim:(i+1)*dim], x[j*dim:(j+1)*dim])
			d.Y[i] = d.Y[j]
		}
		done[i] = true
		copy(x[i*dim:(i+1)*dim], row)
		d.Y[i] = label
	}
}

// Concat returns the concatenation of the given datasets. All inputs must
// share the feature dimension and class count.
func Concat(parts ...*Dataset) *Dataset {
	if len(parts) == 0 {
		panic("dataset: Concat of nothing")
	}
	dim := parts[0].Dim()
	total := 0
	for _, p := range parts {
		if p.Dim() != dim || p.NumClasses != parts[0].NumClasses {
			panic("dataset: Concat of incompatible datasets")
		}
		total += p.Len()
	}
	x := tensor.New(total, dim)
	y := make([]int, 0, total)
	off := 0
	for _, p := range parts {
		copy(x.Data[off*dim:], p.X.Data)
		y = append(y, p.Y...)
		off += p.Len()
	}
	return &Dataset{X: x, Y: y, NumClasses: parts[0].NumClasses, SampleShape: parts[0].SampleShape}
}

// Batches yields mini-batch index slices covering a shuffled permutation of
// the dataset; the final batch may be smaller. It calls fn for each batch
// with a view (copy) of the batch rows.
func (d *Dataset) Batches(batchSize int, rng *rand.Rand, fn func(x *tensor.Tensor, y []int)) {
	n := d.Len()
	if n == 0 {
		return
	}
	if batchSize <= 0 || batchSize > n {
		batchSize = n
	}
	perm := rng.Perm(n)
	dim := d.Dim()
	for lo := 0; lo < n; lo += batchSize {
		hi := lo + batchSize
		if hi > n {
			hi = n
		}
		bx := tensor.New(hi-lo, dim)
		by := make([]int, hi-lo)
		for i, j := range perm[lo:hi] {
			copy(bx.Data[i*dim:(i+1)*dim], d.X.Data[j*dim:(j+1)*dim])
			by[i] = d.Y[j]
		}
		if len(d.SampleShape) > 0 {
			bx = bx.Reshape(append([]int{hi - lo}, d.SampleShape...)...)
		}
		fn(bx, by)
	}
}

// BatchBuf holds reusable mini-batch staging for BatchesBuf: the batch rows,
// labels, and tensor headers are kept across batches (and across calls), so
// steady-state training epochs allocate only the shuffle permutation. The
// zero value is ready to use; a BatchBuf must not be shared between
// concurrent iterations.
type BatchBuf struct {
	data  []float64
	y     []int
	view  *tensor.Tensor
	shape []int
}

// BatchesBuf is Batches with caller-owned staging: it visits exactly the
// same batches in exactly the same order (the rng draws are identical), but
// the tensor handed to fn reuses buf's storage. fn must not retain x or y
// beyond the call — the next batch overwrites them.
func (d *Dataset) BatchesBuf(batchSize int, rng *rand.Rand, buf *BatchBuf, fn func(x *tensor.Tensor, y []int)) {
	n := d.Len()
	if n == 0 {
		return
	}
	if batchSize <= 0 || batchSize > n {
		batchSize = n
	}
	perm := rng.Perm(n)
	dim := d.Dim()
	if cap(buf.data) < batchSize*dim {
		buf.data = make([]float64, batchSize*dim)
	}
	if cap(buf.y) < batchSize {
		buf.y = make([]int, batchSize)
	}
	for lo := 0; lo < n; lo += batchSize {
		hi := lo + batchSize
		if hi > n {
			hi = n
		}
		b := hi - lo
		bx := buf.data[:b*dim]
		by := buf.y[:b]
		for i, j := range perm[lo:hi] {
			copy(bx[i*dim:(i+1)*dim], d.X.Data[j*dim:(j+1)*dim])
			by[i] = d.Y[j]
		}
		if len(d.SampleShape) > 0 {
			buf.shape = append(buf.shape[:0], b)
			buf.shape = append(buf.shape, d.SampleShape...)
		} else {
			buf.shape = append(buf.shape[:0], b, dim)
		}
		buf.view = tensor.AliasSlice(buf.view, bx, buf.shape)
		fn(buf.view, by)
	}
}

// ClassIndices returns, for each class, the row indices holding that class.
func (d *Dataset) ClassIndices() [][]int {
	by := make([][]int, d.NumClasses)
	for i, c := range d.Y {
		by[c] = append(by[c], i)
	}
	return by
}

// Spec describes a synthetic dataset family. The four predefined specs
// mirror the paper's four benchmarks in class count and relative difficulty
// (CIFAR10Like has more sub-modes per class and more noise — "richer
// features" in the paper's words — so it converges slower, like real
// CIFAR-10 vs MNIST).
type Spec struct {
	Name         string
	NumClasses   int
	Dim          int
	NoiseStd     float64 // per-feature sample noise
	PrototypeStd float64 // scale of class prototype vectors
	SubModes     int     // Gaussian sub-modes per class (feature richness)
}

// Predefined dataset specs mirroring the paper's benchmarks.
var (
	MNISTLike        = Spec{Name: "mnist", NumClasses: 10, Dim: 32, NoiseStd: 0.6, PrototypeStd: 1.0, SubModes: 1}
	FashionMNISTLike = Spec{Name: "fmnist", NumClasses: 10, Dim: 32, NoiseStd: 0.8, PrototypeStd: 1.0, SubModes: 2}
	CIFAR10Like      = Spec{Name: "cifar10", NumClasses: 10, Dim: 48, NoiseStd: 1.1, PrototypeStd: 1.0, SubModes: 3}
	FEMNISTLike      = Spec{Name: "femnist", NumClasses: 62, Dim: 64, NoiseStd: 0.9, PrototypeStd: 1.0, SubModes: 2}
)

// prototypes returns the fixed per-class (and per-sub-mode) prototype
// vectors for a spec. They depend only on the spec name, so train and test
// splits generated separately share the same class geometry.
func (s Spec) prototypes() []*tensor.Tensor {
	h := fnv.New64a()
	h.Write([]byte(s.Name))
	rng := rand.New(rand.NewSource(int64(h.Sum64())))
	protos := make([]*tensor.Tensor, s.NumClasses*s.SubModes)
	for i := range protos {
		protos[i] = tensor.RandNormal(rng, 0, s.PrototypeStd, s.Dim)
	}
	return protos
}

// Generate samples n points from the spec's class-conditional mixture with
// uniformly distributed classes, using the given seed.
func Generate(s Spec, n int, seed int64) *Dataset {
	if s.SubModes < 1 {
		panic(fmt.Sprintf("dataset: spec %q has SubModes %d", s.Name, s.SubModes))
	}
	rng := rand.New(rand.NewSource(seed))
	protos := s.prototypes()
	x := tensor.New(n, s.Dim)
	y := make([]int, n)
	for i := 0; i < n; i++ {
		c := i % s.NumClasses // uniform class balance
		mode := rng.Intn(s.SubModes)
		p := protos[c*s.SubModes+mode]
		row := x.Data[i*s.Dim : (i+1)*s.Dim]
		for j := range row {
			row[j] = p.Data[j] + s.NoiseStd*rng.NormFloat64()
		}
		y[i] = c
	}
	// Shuffle so class order carries no information.
	d := &Dataset{X: x, Y: y, NumClasses: s.NumClasses}
	d.permute(rng.Perm(n))
	return d
}

// ApplyFeatureSkew adds a fixed random bias vector (std `std`) to every
// sample, in place. Used to model per-writer feature shift in FEMNIST-like
// populations: each client's data is the global distribution plus a private
// offset, giving non-IID *feature* heterogeneity on top of class skew.
func ApplyFeatureSkew(d *Dataset, rng *rand.Rand, std float64) {
	dim := d.Dim()
	bias := make([]float64, dim)
	for j := range bias {
		bias[j] = std * rng.NormFloat64()
	}
	for i := 0; i < d.Len(); i++ {
		row := d.X.Data[i*dim : (i+1)*dim]
		for j := range row {
			row[j] += bias[j]
		}
	}
}
