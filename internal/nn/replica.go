package nn

import "math/rand"

// Replica is an allocation-free stand-in for "build a fresh model replica
// every round": the FL engines create one model per client per round only
// to overwrite its weights with the global vector, so the build's real
// effects are (a) fixing the architecture and (b) advancing the round's rng
// past the weight-initialization draws before dropout consumes it. A
// Replica caches the model from its first build and, on every later
// acquire, reseeds the same rng object's source and skips exactly the
// number of source draws the factory consumed (Source.Skip) — leaving
// model, rng object identity, and rng stream position bit-identical to a
// fresh factory call, without reallocating a single parameter tensor.
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
	src     *countingSource
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
		r.src = &countingSource{Source: NewSource(seed)}
		r.rng = rand.New(r.src)
		before := r.src.calls
		r.model = r.factory(r.rng)
		r.draws = r.src.calls - before
		return r.model, r.rng
	}
	r.src.Seed(seed)
	r.src.Skip(r.draws)
	return r.model, r.rng
}

// countingSource lets one long-lived rand.Rand object (captured by Dropout
// layers at build time) be reseeded each round, while counting source
// draws so the factory's init consumption can be skipped. Every Source
// method advances its state by exactly one step regardless of which one
// was called, so skipping n steps reproduces any mix of Int63/Uint64
// consumption.
type countingSource struct {
	*Source
	calls int64
}

func (s *countingSource) Int63() int64 {
	s.calls++
	return s.Source.Int63()
}

func (s *countingSource) Uint64() uint64 {
	s.calls++
	return s.Source.Uint64()
}
