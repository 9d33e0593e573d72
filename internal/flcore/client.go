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
// A cohort — a synchronous round's selection under Config.Parallel, every
// tier round of the tiered-async engine — trains concurrently on up to
// min(GOMAXPROCS, |cohort|) goroutines (Engine.trainCohort). A client's pass
// reads the shared starting weights, draws only from its own keyed stream
// and writes only its own residual and its own update slot;
// aggregation, latency and byte accounting run afterwards on the engine
// goroutine in selection order. Results are therefore byte-identical for
// any worker count, and the configured Model, Optimizer, Latency,
// TransformUpdate, EpochsFor and Client.Drift callbacks must be safe for
// concurrent calls (they are never called concurrently for one client).
package flcore

import (
	"fmt"
	"math/rand"

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
	ClientID   int
	Weights    []float64
	NumSamples int
	Latency    float64
	// WireBytes is the encoded uplink size of this update — the codec
	// payload under compression, the dense nn.EncodeWeights size otherwise.
	WireBytes int
}

// FedAvg computes the sample-weighted average of client weight vectors
// (line 8 of Algorithm 1). It panics if updates is empty or the vectors
// disagree in length.
func FedAvg(updates []Update) []float64 {
	if len(updates) == 0 {
		panic("flcore: FedAvg of no updates")
	}
	out := make([]float64, len(updates[0].Weights))
	FedAvgInto(out, updates)
	return out
}

// FedAvgInto computes FedAvg into dst, reusing dst's storage (the round
// loops aggregate into the standing global vector instead of reallocating
// it every round). dst must have the updates' length and must not alias any
// update's weight vector. The reduction runs chunk-parallel across elements
// via tensor.AxpySharded — serial and in update order within each element —
// so the result is byte-identical to the historical serial loop for any
// worker count.
func FedAvgInto(dst []float64, updates []Update) {
	if len(updates) == 0 {
		panic("flcore: FedAvg of no updates")
	}
	n := len(dst)
	coeffs := make([]float64, len(updates))
	srcs := make([][]float64, len(updates))
	total := 0.0
	for k, u := range updates {
		if len(u.Weights) != n {
			panic(fmt.Sprintf("flcore: update length %d != %d", len(u.Weights), n))
		}
		w := float64(u.NumSamples)
		if w <= 0 {
			w = 1 // degenerate client still contributes
		}
		total += w
		coeffs[k] = w
		srcs[k] = u.Weights
	}
	for i := range dst {
		dst[i] = 0
	}
	tensor.AxpySharded(dst, coeffs, srcs)
	tensor.ParallelChunks(n, n, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			dst[i] /= total
		}
	})
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
// per-tier accuracies.
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
