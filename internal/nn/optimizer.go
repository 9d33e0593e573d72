package nn

import (
	"fmt"
	"math"

	"repro/internal/tensor"
)

// Optimizer updates parameters in place from their gradients.
type Optimizer interface {
	Step(params, grads []*tensor.Tensor)
}

// StatePooled is implemented by optimizers whose per-parameter state
// buffers (momentum, second-moment caches) can live in a shared pool. The
// FL engines construct a fresh optimizer every client round; drawing the
// state from the training goroutine's workspace pool makes that churn
// allocation-free. AttachStatePool must be called before the first Step;
// ReleaseState returns the buffers when the optimizer is discarded. State
// buffers start zeroed either way, so pooling does not change results.
type StatePooled interface {
	AttachStatePool(p *tensor.Pool)
	ReleaseState()
}

// optState is a lazily initialized set of per-parameter state buffers,
// optionally drawn from a pool. The pooled unit is a *Tensor so the
// init/release round trip is allocation-free once the pool is warm (raw
// slice Put would burn a header per buffer).
type optState struct {
	pool    *tensor.Pool
	bufs    [][]float64
	tensors []*tensor.Tensor
}

// init allocates one zeroed buffer per parameter on first use.
func (s *optState) init(params []*tensor.Tensor) {
	if s.bufs != nil {
		return
	}
	s.bufs = make([][]float64, len(params))
	if s.pool != nil {
		s.tensors = make([]*tensor.Tensor, len(params))
	}
	for i, p := range params {
		if s.pool != nil {
			t := s.pool.GetTensorZeroed(p.Size())
			s.tensors[i] = t
			s.bufs[i] = t.Data
		} else {
			s.bufs[i] = make([]float64, p.Size())
		}
	}
}

func (s *optState) release() {
	for _, t := range s.tensors {
		s.pool.PutTensor(t)
	}
	s.bufs, s.tensors = nil, nil
}

// SGD is stochastic gradient descent with optional classical momentum.
type SGD struct {
	LR       float64
	Momentum float64
	vel      optState
}

// NewSGD returns an SGD optimizer; the LEAF FEMNIST default in the paper is
// lr=0.004 with no momentum.
func NewSGD(lr, momentum float64) *SGD { return &SGD{LR: lr, Momentum: momentum} }

// AttachStatePool implements StatePooled.
func (s *SGD) AttachStatePool(p *tensor.Pool) { s.vel.pool = p }

// ReleaseState implements StatePooled.
func (s *SGD) ReleaseState() { s.vel.release() }

// Step implements Optimizer.
func (s *SGD) Step(params, grads []*tensor.Tensor) {
	if s.Momentum == 0 {
		for i, p := range params {
			p.AxpyInPlace(-s.LR, grads[i])
		}
		return
	}
	s.vel.init(params)
	lr, mom := s.LR, s.Momentum
	for i, p := range params {
		v := s.vel.bufs[i]
		g := grads[i].Data
		for j := range v {
			v[j] = mom*v[j] - lr*g[j]
			p.Data[j] += v[j]
		}
	}
}

// RMSprop is the optimizer used for the paper's synthetic-dataset
// experiments: initial learning rate 0.01 with multiplicative decay 0.995
// per round, which the optimizer factories apply by building each round's
// optimizer at LR·Decay^round.
type RMSprop struct {
	LR    float64 // learning rate
	Rho   float64 // gradient second-moment smoothing, typically 0.9
	Eps   float64 // numerical stabilizer
	Decay float64 // the schedule's per-round LR decay factor, e.g. 0.995
	cache optState
}

// NewRMSprop returns an RMSprop optimizer with the paper's hyperparameters
// (rho 0.9, eps 1e-7) at the given initial learning rate and decay.
func NewRMSprop(lr, decay float64) *RMSprop {
	return &RMSprop{LR: lr, Rho: 0.9, Eps: 1e-7, Decay: decay}
}

// AttachStatePool implements StatePooled.
func (r *RMSprop) AttachStatePool(p *tensor.Pool) { r.cache.pool = p }

// ReleaseState implements StatePooled.
func (r *RMSprop) ReleaseState() { r.cache.release() }

// Step implements Optimizer: for each element, with ω = 1 − Rho,
//
//	c ← Rho·c + (ω·g)·g,   p ← p − (LR·g) / (√c + Eps),
//
// each operation rounded on its own, in that order. params and grads must
// keep the shapes the state was built for at the first Step: a parameter
// or gradient whose length differs from its cache's panics, on every path.
// With AVX-512F the whole 8-lane groups of each parameter run in
// rmspropKernelAVX512, then whole 4-lane groups in the AVX2 rmspropKernel
// (both in rmsprop_amd64.s), each repeating the sequence lane by lane; the
// loop below finishes the rest and is the kernels' bit-exact reference.
// The hyperparameters are hoisted into locals so the loop does not reload
// them past the parameter stores.
func (r *RMSprop) Step(params, grads []*tensor.Tensor) {
	r.cache.init(params)
	lr, rho, oneMinusRho, eps := r.LR, r.Rho, 1-r.Rho, r.Eps
	for i, p := range params {
		c := r.cache.bufs[i]
		g := grads[i].Data
		pd := p.Data
		if len(g) != len(c) || len(pd) != len(c) {
			panic(fmt.Sprintf("nn: RMSprop parameter %d has %d values and gradient %d, state %d", i, len(pd), len(g), len(c)))
		}
		j := 0
		if useAVX512 && len(c) >= 8 {
			j = len(c) &^ 7
			rmspropKernelAVX512(&pd[0], &g[0], &c[0], j, lr, rho, oneMinusRho, eps)
		}
		if useSIMD && len(c)-j >= 4 {
			k := (len(c) - j) &^ 3
			rmspropKernel(&pd[j], &g[j], &c[j], k, lr, rho, oneMinusRho, eps)
			j += k
		}
		for ; j < len(c); j++ {
			gj := g[j]
			cj := rho*c[j] + oneMinusRho*gj*gj
			c[j] = cj
			pd[j] -= lr * gj / (math.Sqrt(cj) + eps)
		}
	}
}
