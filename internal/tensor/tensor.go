// Package tensor implements dense float64 tensors and the linear-algebra
// kernels needed by the neural-network substrate (internal/nn): element-wise
// arithmetic, matrix multiplication, 2-D convolution via im2col, and pooling.
//
// Tensors are row-major. The package is intentionally small and allocation
// conscious: hot paths (matrix products, im2col) reuse caller-provided
// destinations and parallelize across goroutines when the work is large
// enough to amortize scheduling.
package tensor

import (
	"fmt"
)

// Tensor is a dense, row-major float64 tensor.
//
// The zero value is an empty tensor; use New or the constructors below to
// create one with a shape. Data is exposed so callers can iterate without
// per-element bounds checks, but Shape must be treated as read-only; use
// Reshape to change it.
type Tensor struct {
	shape []int
	Data  []float64
}

// New returns a zero-filled tensor with the given shape.
// It panics if any dimension is negative.
func New(shape ...int) *Tensor {
	n := checkedSize(shape)
	return &Tensor{shape: append([]int(nil), shape...), Data: make([]float64, n)}
}

// checkedSize panics with a precomputed message: formatting the shape here
// would make every caller's shape slice escape to the heap (escape analysis
// is flow-insensitive), putting an allocation on every hot-path tensor
// construction.
func checkedSize(shape []int) int {
	n := 1
	for _, d := range shape {
		if d < 0 {
			panic("tensor: negative dimension in shape")
		}
		n *= d
	}
	return n
}

// Shape returns the tensor's dimensions. The returned slice must not be
// modified.
func (t *Tensor) Shape() []int { return t.shape }

// Size returns the total number of elements.
func (t *Tensor) Size() int { return len(t.Data) }

// Rank returns the number of dimensions.
func (t *Tensor) Rank() int { return len(t.shape) }

// Dim returns the size of dimension i.
func (t *Tensor) Dim(i int) int { return t.shape[i] }

// mustRank panics unless t has rank r; the message formatting lives in a
// cold helper so the guard inlines allocation-free into hot paths.
func (t *Tensor) mustRank(r int) {
	if len(t.shape) != r {
		panicRank(t, r)
	}
}

// Reshape returns a view of t with a new shape of the same total size.
// The underlying data is shared with t.
func (t *Tensor) Reshape(shape ...int) *Tensor {
	n := checkedSize(shape)
	if n != len(t.Data) {
		panic(fmt.Sprintf("tensor: cannot reshape size %d to %v", len(t.Data), shape))
	}
	return &Tensor{shape: append([]int(nil), shape...), Data: t.Data}
}

// Clone returns a deep copy of t.
func (t *Tensor) Clone() *Tensor {
	c := New(t.shape...)
	copy(c.Data, t.Data)
	return c
}

// Zero sets every element of t to zero.
func (t *Tensor) Zero() {
	for i := range t.Data {
		t.Data[i] = 0
	}
}

// Fill sets every element of t to v.
func (t *Tensor) Fill(v float64) {
	for i := range t.Data {
		t.Data[i] = v
	}
}

// String renders a compact description, e.g. "Tensor[2 3]".
func (t *Tensor) String() string {
	return fmt.Sprintf("Tensor%v", t.shape)
}
