// Package flcore implements the cross-device federated-learning substrate
// from Section 3.1 of the TiFL paper and its training engines: clients
// holding private shards, the FedAvg aggregator (Algorithm 1), the
// synchronous round Engine whose per-round latency is the maximum over
// selected clients (Eq. 1), the fully asynchronous FedAsync baseline
// (AsyncEngine), and the FedAT-style tiered-asynchronous hybrid
// (TieredAsyncEngine) — per-tier synchronous mini-rounds with
// staleness-weighted asynchronous commits. TiFL's tier-based selection
// (internal/core) plugs into the synchronous engine through the Selector
// interface without touching the training loop, mirroring the paper's
// "non-intrusive" design claim.
//
// All engine randomness is keyed on (seed, round, client), so runs are
// bit-reproducible, parallel execution matches sequential execution, and
// the distributed runtime (internal/flnet) reproduces the simulator's
// local computation exactly via Engine.TrainClient and TierCohort.
//
// A synchronous round's selection under Config.Parallel trains on up to
// min(GOMAXPROCS, |cohort|) goroutines (syncTrainer); the tiered-async
// engine's rounds train on its pool of GOMAXPROCS trainers, several tiers'
// rounds at once. A client's pass reads its round's starting weights, draws
// only from its own keyed stream and writes only its own residual and its
// own update slot; aggregation, latency and byte accounting run afterwards
// on the engine goroutine in selection order. Results are therefore byte-identical for
// any worker count, and the configured Model, Optimizer, Latency,
// TransformUpdate, EpochsFor and Client.Drift callbacks must be safe for
// concurrent calls (they are never called concurrently for one client).
package flcore

import (
	"fmt"
	"math/rand"

	"repro/internal/compress"
	"repro/internal/dataset"
	"repro/internal/tensor"
)

// Client is one federated data party: a private training shard, a local
// test shard (used for per-tier accuracy in TiFL's adaptive policy), and a
// CPU share from the resource model.
type Client struct {
	ID    int
	Train *dataset.Dataset
	Test  *dataset.Dataset
	CPU   float64
	// Drift, if set, scales the client's CPU share per round, modelling
	// computation/communication performance that changes over time (the
	// setting Section 4.2's periodic re-profiling targets). A return of
	// 0.5 at round r means the client runs at half speed that round.
	Drift func(round int) float64
	// Bandwidth is the client's relative link speed for model transfer
	// (1.0 nominal; 0 means 1.0). Only matters when the latency model's
	// CommPerParam is set.
	Bandwidth float64

	// residual is the client-side error-feedback state of lossy update
	// compression (Config.Codec): the mass the codec dropped from previous
	// rounds, carried into the next round's delta so compression delays
	// information instead of losing it. Engines manage it through
	// Engine.TrainClient; it is per-client state exactly because the paper
	// of record for this technique keeps the residual on the client.
	residual []float64
}

// NumSamples returns the size of the client's training shard — the FedAvg
// aggregation weight s_c in Algorithm 1.
func (c *Client) NumSamples() int { return c.Train.Len() }

// EffectiveCPU returns the client's CPU share at the given round,
// accounting for drift.
func (c *Client) EffectiveCPU(round int) float64 {
	if c.Drift == nil {
		return c.CPU
	}
	return c.CPU * c.Drift(round)
}

// Update is one client's contribution to a round: its locally trained
// weights, aggregation weight, and observed response latency.
type Update struct {
	ClientID int
	// Weights is the trained vector; nil for an update held encoded.
	Weights []float64
	// Encoded and Base hold an update that arrived int8-compressed (set
	// while Weights is nil): its weights are Base + Encoded's
	// reconstruction, which FedAvgInto decodes one tile at a time. Base
	// must hold still until the update is aggregated.
	Encoded    compress.Int8View
	Base       []float64
	NumSamples int
	Latency    float64
	// WireBytes is the encoded uplink size of this update — the codec
	// payload under compression, the dense nn.EncodeWeights size otherwise.
	WireBytes int
}

// FedAvgInto computes the sample-weighted average of the updates' weight
// vectors (line 8 of Algorithm 1) into dst, reusing dst's storage (a tier
// round's commit half aggregates into its Commit's vector, reused round
// after round). dst must have the updates' length and must not alias any
// update's weight vector, though it may be an encoded update's Base; it
// panics on no updates or a length mismatch. The reduction is one
// tensor.MeanSharded — tensor.MeanTiles when an update is encoded, which
// decodes it into each tile's scratch: chunk-parallel across elements, each
// chunk cleared, summed and divided a cache-sized tile at a time — serial
// and in update order within each element — so the result is
// byte-identical to the historical serial loop over decoded updates for any
// worker count.
func FedAvgInto(dst []float64, updates []Update) {
	if len(updates) == 0 {
		panic("flcore: FedAvg of no updates")
	}
	n := len(dst)
	coeffs := make([]float64, len(updates))
	srcs := make([][]float64, len(updates))
	encoded := false
	total := 0.0
	for k, u := range updates {
		size := len(u.Weights)
		if u.Weights == nil {
			size = u.Encoded.Len()
		}
		switch {
		case size != n:
			panic(fmt.Sprintf("flcore: update length %d != %d", size, n))
		case u.Weights != nil:
			srcs[k] = u.Weights
		case len(u.Base) != n:
			panic(fmt.Sprintf("flcore: encoded update's base length %d != %d", len(u.Base), n))
		default:
			encoded = true
		}
		w := float64(u.NumSamples)
		if w <= 0 {
			w = 1 // degenerate client still contributes
		}
		total += w
		coeffs[k] = w
	}
	if !encoded {
		tensor.MeanSharded(dst, coeffs, srcs, total)
		return
	}
	tensor.MeanTiles(dst, coeffs, srcs, func(k int, tile []float64, lo int) {
		u := &updates[k]
		u.Encoded.DecodeRange(tile, u.Base[lo:lo+len(tile)], lo)
	}, total)
}

// MaxLatency returns the round latency under synchronous FL: the slowest
// selected client bounds the round (Eq. 1).
func MaxLatency(updates []Update) float64 {
	m := 0.0
	for _, u := range updates {
		if u.Latency > m {
			m = u.Latency
		}
	}
	return m
}

// Selector chooses the participating clients for a round. Implementations:
// RandomSelector (vanilla FL) and the tier-based schedulers in
// internal/core.
type Selector interface {
	// Select returns the indices (into the engine's client slice) of the
	// clients that participate in round r. rng is the engine's per-round
	// deterministic source.
	Select(r int, rng *rand.Rand) []int
}

// RoundObserver is an optional extension of Selector: after each round the
// engine hands observers an evaluation function over the freshly aggregated
// global model. TiFL's adaptive policy (Algorithm 2) uses it to maintain
// per-tier accuracies, calling eval only on the rounds its Select reads
// (and round 0).
type RoundObserver interface {
	AfterRound(r int, eval func(d *dataset.Dataset) float64)
}

// LatencyObserver is an optional extension of Selector: after each round
// the engine reports the selected clients' observed response latencies.
// Online re-tiering (tiering.Selector, over a tiering.Manager) uses it to
// re-tier on the fly when client performance drifts.
type LatencyObserver interface {
	ObserveLatencies(r int, updates []Update)
}

// RandomSelector is the vanilla FL policy: |C| clients drawn uniformly at
// random without replacement from the full pool K each round.
type RandomSelector struct {
	NumClients      int // |K|
	ClientsPerRound int // |C|
}

// Select implements Selector.
func (s *RandomSelector) Select(r int, rng *rand.Rand) []int {
	if s.ClientsPerRound > s.NumClients {
		panic(fmt.Sprintf("flcore: cannot select %d of %d clients", s.ClientsPerRound, s.NumClients))
	}
	return rng.Perm(s.NumClients)[:s.ClientsPerRound]
}
