package experiments

import (
	"math/rand"
	"runtime"
	"time"

	"repro/internal/dataset"
	"repro/internal/flcore"
	"repro/internal/metrics"
	"repro/internal/nn"
	"repro/internal/simres"
)

// The population-scale extension: the paper's evaluation stops at |K|=50
// resident clients, but cross-device federated deployments select cohorts
// out of populations in the millions. This experiment runs the tiered-
// asynchronous engine over a registered population of Scale.Population
// (1e6 at FullScale) clients through a lazy ClientSource: every client's
// private shard is derived on demand from (seed, id) when a tier round
// selects it and dropped when the round's aggregate is computed, so
// resident client state is bounded by the cohort size — the equivalence
// suite (flcore TestScaledEngineEquivalence) proves this engine is
// byte-identical to the resident-population one, so nothing about the
// training semantics changes with N.

// millionSamplesPer is each synthetic client's private shard size. Small on
// purpose: cross-device clients hold little data, and the experiment's
// subject is population scale, not per-client work.
const millionSamplesPer = 16

// millionDuration is the simulated budget. With 16-sample shards the five
// CIFAR CPU groups respond in ~0.54s (4 CPUs) to ~2.1s (0.1 CPUs), so 12
// simulated seconds give the slowest tier ~5 commits and the whole run
// comfortably more than 20 — enough to exercise staleness mixing without
// making the CI smoke run expensive.
const millionDuration = 12.0

// millionFactory derives fully synthetic clients from (seed, id): an
// on-the-fly private shard and a CPU share from the paper's five CIFAR
// resource groups, assigned contiguously so tier k is exactly the id range
// [k*n/5, (k+1)*n/5). No O(N) state backs the factory.
func millionFactory(seed int64, n int) flcore.ClientFactory {
	groups := simres.GroupsCIFAR
	return func(id int) *flcore.Client {
		return &flcore.Client{
			ID:    id,
			Train: dataset.Generate(dataset.MNISTLike, millionSamplesPer, flcore.DeriveSeed(seed, id, 101)),
			CPU:   groups[int(int64(id)*int64(len(groups))/int64(n))],
		}
	}
}

// millionTiers splits [0,n) into 5 contiguous tiers, fastest first,
// mirroring millionFactory's CPU assignment.
func millionTiers(n int) [][]int {
	tiers := make([][]int, 5)
	for t := range tiers {
		lo := int(int64(t) * int64(n) / 5)
		hi := int(int64(t+1) * int64(n) / 5)
		members := make([]int, hi-lo)
		for i := range members {
			members[i] = lo + i
		}
		tiers[t] = members
	}
	return tiers
}

// MillionOutcome carries the population-scale run's raw numbers for the
// acceptance test and the benchmark metrics.
type MillionOutcome struct {
	// Population is the registered N; Commits the total committed tier
	// rounds; CommitsPerTier the per-tier split.
	Population     int
	Commits        int
	CommitsPerTier []int
	// SimTime is the simulated clock at the end; WallSeconds the real time
	// the run took; RoundsPerSec = Commits / WallSeconds.
	SimTime      float64
	WallSeconds  float64
	RoundsPerSec float64
	// UplinkBytes is the total committed update traffic;
	// BytesPerClientUpdate divides it by the number of committed client
	// updates (the per-client uplink cost of one selection).
	UplinkBytes          int64
	ClientUpdates        int
	BytesPerClientUpdate float64
	// Materialized counts factory invocations; PeakLive / LiveAfter the
	// resident-client high-water mark and post-run count — the memory
	// bound the lazy source guarantees. Residuals must be 0 (no codec).
	Materialized int64
	PeakLive     int
	LiveAfter    int
	Residuals    int
	// PeakHeapBytes is a resident-memory proxy: the high-water mark of
	// runtime.MemStats.HeapAlloc sampled at construction, every few
	// commits, and after the run. It bounds total live heap — population
	// bookkeeping (tier membership) plus transient cohort state.
	PeakHeapBytes uint64
	// FinalAcc is the global model's accuracy on the held-out test set.
	FinalAcc float64
}

// MillionRun executes the population-scale tiered-async run. Exported
// separately from RunExtensionMillion so tests and benchmarks can assert on
// the raw outcome.
func MillionRun(s Scale) MillionOutcome {
	n := s.Population
	if n <= 0 {
		n = 1_000_000
	}
	src := flcore.NewLazyClients(n, millionFactory(s.Seed, n))
	test := dataset.Generate(dataset.MNISTLike, 512, s.Seed+2)

	var peakHeap uint64
	var ms runtime.MemStats
	sampleHeap := func() {
		runtime.ReadMemStats(&ms)
		if ms.HeapAlloc > peakHeap {
			peakHeap = ms.HeapAlloc
		}
	}
	commits := 0
	cfg := flcore.TieredAsyncConfig{
		Duration: millionDuration, ClientsPerRound: s.ClientsPerRound,
		Seed: s.Seed, BatchSize: 8, LocalEpochs: 1,
		Model: func(rng *rand.Rand) *nn.Model {
			return nn.NewMLP(rng, dataset.MNISTLike.Dim, []int{16}, dataset.MNISTLike.NumClasses, 0)
		},
		Optimizer: func(round int) nn.Optimizer { return nn.NewRMSprop(0.01, 0.995) },
		Latency:   LatencyModel,
		EvalBatch: 256,
		OnCommit: func(rec flcore.TierRoundRecord) {
			commits++
			if commits%4 == 0 {
				sampleHeap()
			}
		},
	}

	eng := flcore.NewTieredAsyncEngineFrom(cfg, millionTiers(n), src, test)
	sampleHeap() // construction cost: tier membership + engine state
	start := time.Now()
	res := eng.Run()
	wall := time.Since(start).Seconds()
	sampleHeap()

	out := MillionOutcome{
		Population:     n,
		Commits:        len(res.TierRounds),
		CommitsPerTier: res.Commits,
		SimTime:        res.TotalTime,
		WallSeconds:    wall,
		UplinkBytes:    res.UplinkBytes,
		PeakHeapBytes:  peakHeap,
		FinalAcc:       res.FinalAcc,
	}
	for _, rec := range res.TierRounds {
		out.ClientUpdates += len(rec.Selected)
	}
	if wall > 0 {
		out.RoundsPerSec = float64(out.Commits) / wall
	}
	if out.ClientUpdates > 0 {
		out.BytesPerClientUpdate = float64(out.UplinkBytes) / float64(out.ClientUpdates)
	}
	st := src.Stats()
	out.Materialized = st.Materialized
	out.PeakLive = st.Peak
	out.LiveAfter = st.Live
	out.Residuals = st.Residuals
	return out
}

// RunExtensionMillion renders the population-scale run: a million
// registered clients, resident client state bounded by the cohort, and the
// run's traffic metrics.
func RunExtensionMillion(s Scale) *Output {
	out := MillionRun(s)
	// The table sticks to simulation-deterministic quantities so reports
	// stay byte-identical across runs of the same seed; the wall-clock
	// throughput and heap proxy live in MillionOutcome only, where
	// run-to-run jitter is expected.
	tab := metrics.Table{
		Title: "Extension: million-client event-driven population scale",
		Columns: []string{"engine", "population", "commits", "commits/sim-sec", "bytes/client update",
			"peak live clients", "materialized", "residuals", "final accuracy"},
	}
	tab.AddRow("tiered-async lazy", float64(out.Population), float64(out.Commits),
		float64(out.Commits)/out.SimTime, out.BytesPerClientUpdate,
		float64(out.PeakLive), float64(out.Materialized),
		float64(out.Residuals), out.FinalAcc)
	return &Output{
		ID:     "ext_million",
		Title:  "Event-driven simulation at cross-device population scale",
		Tables: []metrics.Table{tab},
	}
}
