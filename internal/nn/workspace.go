package nn

import (
	"repro/internal/tensor"
)

// Workspace is the per-training-goroutine scratch arena of the hot path: a
// tensor free list from which layers draw their activation, gradient and
// im2col buffers, and optimizer state its per-parameter caches. Attach one
// to a model with Model.SetWorkspace; after that, steady-state training
// batches allocate nothing — each layer keeps its buffers across batches
// while shapes repeat, and returns them to the pool when the batch shape
// changes.
//
// Memory: a buffer is never rounded up and never handed back to the GC
// while the workspace lives (no sync.Pool), so a workspace holds what its
// owner's shapes need — the layers' buffers, plus the optimizer state (one
// parameter-sized buffer each) between client rounds — and all of it goes
// when the workspace is dropped.
//
// Ownership rules:
//
//   - A Workspace must only be used by one goroutine at a time (the
//     training loops in internal/flcore keep one per worker goroutine and
//     hand it to whichever model replica that goroutine is training).
//   - A layer owns the buffers it drew until it releases them; buffers
//     handed to the pool must never be touched again by the old owner.
//   - Tensors returned by Forward/Backward on a workspace-attached model
//     are owned by the model's layers and are overwritten by the next
//     batch; callers that need them to survive must copy.
//
// A nil *Workspace is valid everywhere and falls back to plain allocation
// while still reusing each layer's cached buffer when shapes repeat.
type Workspace struct {
	pool tensor.Pool
}

// NewWorkspace returns an empty workspace with its own buffer pool.
func NewWorkspace() *Workspace { return &Workspace{} }

// Pool exposes the workspace's underlying buffer pool so adjacent hot-path
// scratch (optimizer state) shares storage with the layer workspaces.
func (w *Workspace) Pool() *tensor.Pool {
	if w == nil {
		return nil
	}
	return &w.pool
}

// Ensure returns a tensor of the given shape for scratch use. When cur
// already has exactly that shape it is returned unchanged (the steady-state
// path: zero allocation); otherwise cur is recycled into the pool and a
// pooled (or, with a nil workspace, freshly allocated) tensor is returned.
// The contents of the result are unspecified.
func (w *Workspace) Ensure(cur *tensor.Tensor, shape ...int) *tensor.Tensor {
	if cur != nil && sameShape(cur, shape) {
		return cur
	}
	if w == nil {
		return tensor.New(shape...)
	}
	w.pool.PutTensor(cur)
	return w.pool.GetTensor(shape...)
}

func sameShape(t *tensor.Tensor, shape []int) bool {
	s := t.Shape()
	if len(s) != len(shape) {
		return false
	}
	for i, d := range s {
		if shape[i] != d {
			return false
		}
	}
	return true
}

// workspaced is implemented by layers that draw scratch buffers from a
// workspace; setWorkspace attaches the arena (nil detaches).
type workspaced interface {
	setWorkspace(ws *Workspace)
}

// SetWorkspace attaches ws to the model and all its layers. Pass nil to
// detach. Attaching is idempotent and cheap, so training loops may call it
// every time a replica is (re)acquired.
func (m *Model) SetWorkspace(ws *Workspace) {
	m.ws = ws
	for _, l := range m.Layers {
		if wl, ok := l.(workspaced); ok {
			wl.setWorkspace(ws)
		}
	}
}
