package nn

import (
	"fmt"
	"math/rand"
)

// Replica is an allocation-free stand-in for "build a fresh model replica
// every round": the FL engines create one model per client per round only
// to overwrite its weights with the global vector, so the build's real
// effects are (a) fixing the architecture and (b) advancing the round's rng
// past the weight-initialization draws before dropout consumes it. A
// Replica caches the model from its first build and, on every later
// acquire, reseeds the same rng object and burns exactly the number of
// source draws the factory consumed — leaving model, rng object identity,
// and rng stream position bit-identical to a fresh factory call, without
// reallocating a single parameter tensor.
//
// The engines bind the replica's weights rather than copy them: each pass
// copies the global vector into the caller's slot and binds the model to it
// (Model.BindWeights), so the model trains in that slot and, once first
// bound, holds no weight vector of its own; the pass unbinds it at the end
// (Model.UnbindWeights), so an idle replica keeps no slot alive.
//
// The factory must consume a seed-independent number of rng source draws
// during construction and must produce the same architecture every call.
// This package's builders qualify: Glorot-uniform init draws exactly one
// source step per weight via rand.Float64. (Float64's guard against a
// rounded-to-1.0 draw can in principle retry, at probability ≈2⁻⁵³ per
// weight — negligible against any other source of nondeterminism.)
//
// A Replica is not safe for concurrent use; the engines keep one per
// training goroutine, next to that goroutine's Workspace.
type Replica struct {
	factory func(*rand.Rand) *Model
	model   *Model
	rng     *rand.Rand
	src     *swappableSource
	draws   int64
}

// NewReplica returns a replica cache over the given model factory.
func NewReplica(factory func(*rand.Rand) *Model) *Replica {
	if factory == nil {
		panic("nn: NewReplica with nil factory")
	}
	return &Replica{factory: factory}
}

// Acquire returns the cached model replica and its rng, positioned exactly
// as factory(rand.New(rand.NewSource(seed))) would leave a fresh build:
// same architecture, rng stream advanced past the init draws. The caller
// must set the weights before use: BindWeights, or SetWeightsVector on a
// replica never bound. On reuse they hold the previous round's values, not
// the seed's init values, or nothing once unbound.
func (r *Replica) Acquire(seed int64) (*Model, *rand.Rand) {
	if r.model == nil {
		r.src = &swappableSource{inner: newSource64(seed)}
		r.rng = rand.New(r.src)
		before := r.src.calls
		r.model = r.factory(r.rng)
		r.draws = r.src.calls - before
		return r.model, r.rng
	}
	// Re-seeding the existing source reproduces rand.NewSource(seed)
	// exactly (NewSource is allocate-then-Seed) without the ~5 KB source
	// allocation per acquire.
	r.src.inner.Seed(seed)
	for i := int64(0); i < r.draws; i++ {
		r.src.inner.Uint64()
	}
	return r.model, r.rng
}

// swappableSource lets one long-lived rand.Rand object (captured by Dropout
// layers at build time) be re-pointed at a fresh deterministic source each
// round, while counting source draws so the factory's init consumption can
// be replayed. Every rngSource method advances its state by exactly one
// step regardless of which interface method was called, so burning draws
// with Uint64 reproduces any mix of Int63/Uint64 consumption.
type swappableSource struct {
	inner rand.Source64
	calls int64
}

func (s *swappableSource) Int63() int64 {
	s.calls++
	return s.inner.Int63()
}

func (s *swappableSource) Uint64() uint64 {
	s.calls++
	return s.inner.Uint64()
}

func (s *swappableSource) Seed(seed int64) { s.inner.Seed(seed) }

func newSource64(seed int64) rand.Source64 {
	src, ok := rand.NewSource(seed).(rand.Source64)
	if !ok {
		// rand.NewSource has returned a Source64 since Go 1.8; this guards
		// against a hypothetical runtime that drops it.
		panic(fmt.Sprintf("nn: rand.NewSource(%d) is not a Source64", seed))
	}
	return src
}
