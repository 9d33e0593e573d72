package tifl_test

import (
	"fmt"
	"math/rand"

	tifl "repro"
	"repro/internal/dataset"
	"repro/internal/flcore"
	"repro/internal/nn"
	"repro/internal/simres"
)

// ExampleSystem_TrainTieredAsync trains a small heterogeneous federation
// with the FedAT-style tiered-asynchronous engine: TiFL's profiling and
// tiering first groups the clients by speed, then each tier runs its own
// synchronous mini-FedAvg rounds while commits flow asynchronously into the
// global model with staleness-discounted, slower-tier-favoring weights.
func ExampleSystem_TrainTieredAsync() {
	// 9 clients over three CPU groups (4 / 1 / 0.25 cores) holding IID
	// shards of a synthetic MNIST-like problem.
	train := dataset.Generate(dataset.MNISTLike, 600, 1)
	test := dataset.Generate(dataset.MNISTLike, 200, 2)
	parts := dataset.PartitionIID(train.Len(), 9, rand.New(rand.NewSource(3)))
	cpus := simres.AssignGroups(9, []float64{4, 1, 0.25})
	clients := flcore.BuildClients(train, test, parts, cpus, 20, 4)

	// New profiles every client and builds the latency tiers.
	sys, err := tifl.New(clients, tifl.Options{NumTiers: 3})
	if err != nil {
		panic(err)
	}

	// 60 simulated seconds of tiered-asynchronous training. FedAT's
	// cross-tier weights are the default.
	res := sys.TrainTieredAsync(tifl.TieredAsyncConfig{
		CommitterConfig: tifl.CommitterConfig{ClientsPerRound: 2, Seed: 7},
		Duration:        60, BatchSize: 10,
		Model: func(rng *rand.Rand) *nn.Model {
			return nn.NewMLP(rng, dataset.MNISTLike.Dim, []int{8}, 10, 0)
		},
		Optimizer: func(round int) nn.Optimizer { return nn.NewRMSprop(0.01, 0.995) },
		EvalBatch: 64,
	}, test)

	fmt.Printf("tiers: %d\n", len(res.Commits))
	fmt.Printf("fast tier outcommitted the slow tier: %v\n", res.Commits[0] > res.Commits[2])
	fmt.Printf("every commit was staleness-weighted: %v\n", len(res.TierRounds) > 0)
	fmt.Printf("learned above chance: %v\n", res.FinalAcc > 0.2)
	// Output:
	// tiers: 3
	// fast tier outcommitted the slow tier: true
	// every commit was staleness-weighted: true
	// learned above chance: true
}
