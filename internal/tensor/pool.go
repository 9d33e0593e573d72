package tensor

import (
	"math/bits"
	"sync"
)

// Pool is a size-bucketed recycler for tensors and float64 buffers, backing
// the training hot path's workspaces (internal/nn.Workspace). Storage is
// bucketed by capacity rounded to a power of two and cached in sync.Pools,
// so steady-state training batches reuse buffers instead of allocating,
// while idle buffers remain reclaimable by the GC.
//
// The pooled unit is a *Tensor: headers travel with their storage, so a
// GetTensor/PutTensor round trip allocates nothing at all (sync.Pool stores
// the pointer directly — no interface boxing).
//
// Ownership rule: a buffer obtained from Get/GetTensor is owned exclusively
// by the caller until it is returned with Put/PutTensor; after returning it
// (and any view sharing its data) must not be touched again. Returning
// foreign slices is allowed (they are bucketed by capacity), returning nil
// is a no-op. A Pool is safe for concurrent use; the zero value is ready.
type Pool struct {
	buckets [maxBucketBits - minBucketBits + 1]sync.Pool
}

const (
	// minBucketBits is the smallest bucket (64 elements): tinier buffers
	// cost less to allocate than to round-trip through a sync.Pool.
	minBucketBits = 6
	// maxBucketBits caps pooling at 2^28 elements (2 GiB of float64);
	// larger buffers are handed to the allocator directly.
	maxBucketBits = 28
)

// bucketFor returns the bucket index whose capacity (2^(idx+minBucketBits))
// is the smallest that holds n elements, or -1 when n is outside the pooled
// range.
func bucketFor(n int) int {
	if n <= 0 {
		return -1
	}
	b := bits.Len(uint(n - 1))
	if b < minBucketBits {
		b = minBucketBits
	}
	if b > maxBucketBits {
		return -1
	}
	return b - minBucketBits
}

// GetTensor returns a tensor of the given shape with pooled storage and
// unspecified contents. Use GetTensorZeroed when zeroing matters.
func (p *Pool) GetTensor(shape ...int) *Tensor {
	n := checkedSize(shape)
	b := bucketFor(n)
	if b < 0 {
		return &Tensor{shape: append([]int(nil), shape...), Data: make([]float64, n)}
	}
	if t, _ := p.buckets[b].Get().(*Tensor); t != nil {
		t.Data = t.Data[:n]
		t.shape = append(t.shape[:0], shape...)
		return t
	}
	return &Tensor{shape: append([]int(nil), shape...), Data: make([]float64, n, 1<<(b+minBucketBits))}
}

// GetTensorZeroed returns a zero-filled tensor of the given shape with
// pooled storage.
func (p *Pool) GetTensorZeroed(shape ...int) *Tensor {
	t := p.GetTensor(shape...)
	t.Zero()
	return t
}

// PutTensor returns a tensor and its storage to the pool. The tensor (and
// any views sharing its data) must not be used afterwards. nil is a no-op.
func (p *Pool) PutTensor(t *Tensor) {
	if t == nil {
		return
	}
	c := cap(t.Data)
	if c < 1<<minBucketBits {
		return
	}
	// Bucket by the largest power of two the capacity fully covers, so a
	// future Get from that bucket always fits.
	b := bits.Len(uint(c)) - 1 - minBucketBits
	if b < 0 {
		return
	}
	if b > maxBucketBits-minBucketBits {
		b = maxBucketBits - minBucketBits
	}
	t.Data = t.Data[:0]
	t.shape = t.shape[:0]
	p.buckets[b].Put(t)
}

// Get returns a []float64 of length n with unspecified contents.
func (p *Pool) Get(n int) []float64 {
	b := bucketFor(n)
	if b < 0 {
		return make([]float64, n)
	}
	if t, _ := p.buckets[b].Get().(*Tensor); t != nil {
		return t.Data[:n]
	}
	return make([]float64, n, 1<<(b+minBucketBits))
}

// Put returns a buffer to the pool. The caller must not use s afterwards.
func (p *Pool) Put(s []float64) {
	if cap(s) == 0 {
		return
	}
	p.PutTensor(&Tensor{Data: s})
}

// AliasView points view at src's data with the given shape, reusing view's
// header and shape slice so steady-state reshapes (nn.Flatten) allocate
// nothing. It returns view, or a fresh header when view is nil. shape must
// cover exactly src's element count.
func AliasView(view, src *Tensor, shape []int) *Tensor {
	return AliasSlice(view, src.Data, shape)
}

// AliasSlice is AliasView over a raw slice: it points view at data with the
// given shape, reusing view's header and shape slice. shape must cover
// exactly len(data) elements.
func AliasSlice(view *Tensor, data []float64, shape []int) *Tensor {
	n := checkedSize(shape)
	if n != len(data) {
		panicAliasSize(len(data), shape)
	}
	if view == nil {
		view = &Tensor{}
	}
	view.Data = data
	view.shape = append(view.shape[:0], shape...)
	return view
}
