package tensor

import (
	"sort"
	"sync"
)

// Pool is a free list of tensors, the storage behind the training hot
// path's workspaces (internal/nn.Workspace) and the optimizer state drawn
// through them. GetTensor hands out the smallest held buffer whose capacity
// covers the request, or allocates exactly the requested size; PutTensor
// keeps a buffer until the Pool itself is dropped. Nothing is rounded up
// and nothing is given back to the GC early, so what a Pool retains is
// bounded by what its owner's shapes need: at most as many buffers as the
// owner has held out at once, each the size of a request it made.
//
// The pooled unit is a *Tensor: headers travel with their storage, so a
// GetTensor/PutTensor round trip allocates nothing once the list has grown
// to the owner's working set.
//
// Ownership rule: a tensor obtained from GetTensor is owned exclusively by
// the caller until it is returned with PutTensor; after returning it (and
// any view sharing its data) must not be touched again. Returning foreign
// tensors is allowed (they are kept by capacity), returning nil is a
// no-op. A Pool is safe for concurrent use; the zero value is ready.
type Pool struct {
	mu   sync.Mutex
	free []*Tensor // held buffers, ascending by capacity
}

// GetTensor returns a tensor of the given shape with pooled storage and
// unspecified contents. Use GetTensorZeroed when zeroing matters.
func (p *Pool) GetTensor(shape ...int) *Tensor {
	n := checkedSize(shape)
	p.mu.Lock()
	i := sort.Search(len(p.free), func(i int) bool { return cap(p.free[i].Data) >= n })
	if i == len(p.free) {
		p.mu.Unlock()
		return &Tensor{shape: append([]int(nil), shape...), Data: make([]float64, n)}
	}
	t := p.free[i]
	copy(p.free[i:], p.free[i+1:])
	p.free[len(p.free)-1] = nil
	p.free = p.free[:len(p.free)-1]
	p.mu.Unlock()
	t.Data = t.Data[:n]
	t.shape = append(t.shape[:0], shape...)
	return t
}

// GetTensorZeroed returns a zero-filled tensor of the given shape with
// pooled storage.
func (p *Pool) GetTensorZeroed(shape ...int) *Tensor {
	t := p.GetTensor(shape...)
	t.Zero()
	return t
}

// PutTensor returns a tensor and its storage to the pool. The tensor (and
// any views sharing its data) must not be used afterwards. nil and
// storage-less tensors are a no-op.
func (p *Pool) PutTensor(t *Tensor) {
	if t == nil || cap(t.Data) == 0 {
		return
	}
	c := cap(t.Data)
	t.Data = t.Data[:0]
	t.shape = t.shape[:0]
	p.mu.Lock()
	i := sort.Search(len(p.free), func(i int) bool { return cap(p.free[i].Data) >= c })
	p.free = append(p.free, nil)
	copy(p.free[i+1:], p.free[i:])
	p.free[i] = t
	p.mu.Unlock()
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
