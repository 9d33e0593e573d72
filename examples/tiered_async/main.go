// Tiered-asynchronous training: the FedAT-style hybrid between TiFL's
// synchronous tier-based rounds and fully asynchronous FL. Each tier runs
// its own synchronous mini-FedAvg loop, tiers advance independently over
// simulated time, and every committed tier round is mixed into the global
// model with a staleness-discounted, slower-tier-favoring weight. The
// example trains the same heterogeneous federation three ways — TiFL
// adaptive (sync), FedAsync, and tiered-async — on one shared wall-clock
// budget and reports which design reaches the best accuracy.
package main

import (
	"fmt"
	"math"
	"math/rand"

	tifl "repro"
	"repro/internal/dataset"
	"repro/internal/flcore"
	"repro/internal/nn"
	"repro/internal/simres"
)

func main() {
	train := dataset.Generate(dataset.CIFAR10Like, 5000, 1)
	test := dataset.Generate(dataset.CIFAR10Like, 1000, 2)
	rng := rand.New(rand.NewSource(3))
	parts := dataset.PartitionIID(train.Len(), 50, rng)
	cpus := simres.AssignGroups(50, simres.GroupsCIFAR)
	clients := flcore.BuildClients(train, test, parts, cpus, 50, 4)

	sys, err := tifl.New(clients, tifl.Options{})
	if err != nil {
		panic(err)
	}

	cfg := tifl.Config{
		Rounds: 40, ClientsPerRound: 5, LocalEpochs: 1, BatchSize: 10, Seed: 5,
		Model: func(rng *rand.Rand) *nn.Model {
			return nn.NewMLP(rng, dataset.CIFAR10Like.Dim, []int{32}, 10, 0)
		},
		Optimizer: func(round int) nn.Optimizer {
			return nn.NewRMSprop(0.01*math.Pow(0.995, float64(round)), 0.995)
		},
		EvalEvery: 10,
		Parallel:  true,
	}

	// Synchronous TiFL sets the shared simulated-time budget.
	sync := sys.Train(cfg, test, tifl.Adaptive(tifl.AdaptiveConfig{Interval: 10, TestPerTier: 200}))
	budget := sync.TotalTime

	async := flcore.RunAsync(flcore.AsyncConfig{
		Duration: budget, Concurrency: 5, EvalInterval: budget / 10,
		Seed: 5, BatchSize: 10, LocalEpochs: 1,
		Model: cfg.Model, Optimizer: cfg.Optimizer, Latency: simres.DefaultModel,
		EvalBatch: 256,
	}, clients, test)

	// Tiered-async: FedAT cross-tier weights are the default.
	tiered := sys.TrainTieredAsync(tifl.TieredAsyncConfig{
		CommitterConfig: tifl.CommitterConfig{ClientsPerRound: 5, Seed: 5},
		Duration:        budget, EvalInterval: budget / 10, BatchSize: 10, LocalEpochs: 1,
		Model: cfg.Model, Optimizer: cfg.Optimizer, EvalBatch: 256,
	}, test)

	fmt.Printf("shared simulated budget: %.1fs\n\n", budget)
	fmt.Printf("%-22s %-12s %-12s\n", "system", "time [s]", "accuracy")
	fmt.Printf("%-22s %-12.1f %-12.4f\n", "TiFL (adaptive, sync)", sync.TotalTime, sync.FinalAcc)
	fmt.Printf("%-22s %-12.1f %-12.4f\n", "FedAsync", async.TotalTime, async.FinalAcc)
	fmt.Printf("%-22s %-12.1f %-12.4f\n", "FedAT (tiered-async)", tiered.TotalTime, tiered.FinalAcc)

	fmt.Println("\ncommits per tier (fastest first):")
	for t, n := range tiered.Commits {
		fmt.Printf("  tier %d: %d rounds\n", t+1, n)
	}

	// Live tiering (internal/tiering): the same tiered-async run, but the
	// fastest CPU group collapses to 5% capacity mid-run. With
	// RetierEvery set, observed round latencies feed EWMA estimates and
	// the drifted clients migrate out of the fast tier at rebuild points,
	// so the fast tier keeps committing at full speed.
	drifted := flcore.BuildClients(train, test, parts, cpus, 50, 4)
	perGroup := len(drifted) / 5
	for i := 0; i < perGroup; i++ {
		// Latched: once drifted, a client stays slow even after migrating
		// to a tier whose local round counter is still below the
		// threshold — otherwise migration would un-drift it and the next
		// rebuild would pull it straight back.
		latched := false
		drifted[i].Drift = func(round int) float64 {
			if round >= 5 {
				latched = true
			}
			if latched {
				return 0.05
			}
			return 1
		}
	}
	liveSys, err := tifl.New(drifted, tifl.Options{TieringOptions: tifl.TieringOptions{RetierEvery: 25}})
	if err != nil {
		panic(err)
	}
	live := liveSys.TrainTieredAsync(tifl.TieredAsyncConfig{
		CommitterConfig: tifl.CommitterConfig{ClientsPerRound: 5, Seed: 5},
		Duration:        budget, EvalInterval: budget / 10, BatchSize: 10, LocalEpochs: 1,
		Model: cfg.Model, Optimizer: cfg.Optimizer, EvalBatch: 256,
	}, test)
	fmt.Printf("\nlive re-tiering under mid-run drift: %d re-tierings moved %d clients, final accuracy %.4f\n",
		live.Retiers, live.Migrations, live.FinalAcc)
}
