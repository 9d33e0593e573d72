package experiments

import (
	"repro/internal/core"
	"repro/internal/flcore"
	"repro/internal/metrics"
)

// RunExtensionTieredAsync pits the three server designs the TiFL paper's
// related work spans against each other on the Combine scenario (resource +
// quantity + non-IID heterogeneity): TiFL's synchronous adaptive tier
// selection, the fully asynchronous FedAsync baseline, and the FedAT-style
// tiered-asynchronous hybrid (per-tier synchronous rounds, asynchronous
// staleness-weighted cross-tier commits). All three share the client
// population, latency model, and — for the two asynchronous systems — the
// simulated time budget the synchronous run consumed, so the comparison is
// wall-clock-for-wall-clock.
func RunExtensionTieredAsync(s Scale) *Output {
	sc := s.newScenario("ext-tiered-async", cifarSpec(), hetCombine, 5)
	tiers, ref := sc.tiers(s)
	cfg := s.engineConfig(sc.spec)

	// Synchronous reference: TiFL adaptive. Its total time is the shared
	// budget and its final accuracy the target the async systems chase.
	syncRes := flcore.NewEngine(cfg, sc.clients(s), sc.test).
		Run(core.NewAdaptiveSelector(tiers, ref, s.adaptiveRun().adaptive))
	budget := syncRes.TotalTime
	target := syncRes.FinalAcc

	async := flcore.RunAsync(flcore.AsyncConfig{
		Duration: budget, Concurrency: s.ClientsPerRound,
		EvalInterval: budget / 20, Seed: s.Seed,
		BatchSize: 10, LocalEpochs: 1,
		Model: cfg.Model, Optimizer: cfg.Optimizer, Latency: LatencyModel,
		EvalBatch: 256,
	}, sc.clients(s), sc.test)

	tiered := flcore.RunTieredAsync(flcore.TieredAsyncConfig{
		CommitterConfig: flcore.CommitterConfig{
			ClientsPerRound: s.ClientsPerRound, TierWeight: core.FedATWeights(), Seed: s.Seed,
		},
		Duration: budget, EvalInterval: budget / 20,
		BatchSize: 10, LocalEpochs: 1,
		Model: cfg.Model, Optimizer: cfg.Optimizer, Latency: LatencyModel,
		EvalBatch: 256,
	}, core.TierMembers(tiers), sc.clients(s), sc.test)

	syncSeries := metrics.AccuracyOverTime(syncRes, "TiFL (adaptive, sync)")
	asyncSeries := metrics.AccuracyOverTime(async, "FedAsync")
	tieredSeries := metrics.AccuracyOverTime(&tiered.Result, "FedAT (tiered-async)")

	tab := metrics.Table{
		Title:   "Extension: sync vs async vs tiered-async (Combine scenario)",
		Columns: []string{"system", "training time [s]", "final accuracy", "time to sync accuracy [s]"},
	}
	tab.AddRow("TiFL (adaptive, sync)", syncRes.TotalTime, syncRes.FinalAcc, metrics.TimeToAccuracy(syncSeries, target))
	tab.AddRow("FedAsync", async.TotalTime, async.FinalAcc, metrics.TimeToAccuracy(asyncSeries, target))
	tab.AddRow("FedAT (tiered-async)", tiered.TotalTime, tiered.FinalAcc, metrics.TimeToAccuracy(tieredSeries, target))

	commits := metrics.Table{
		Title:   "Tiered-async commits per tier (fastest first)",
		Columns: []string{"tier", "commits"},
	}
	for t, n := range tiered.Commits {
		commits.AddRow(float64(t+1), float64(n))
	}

	return &Output{
		ID:     "ext_tiered_async",
		Title:  "FedAT-style tiered-asynchronous training vs sync TiFL and FedAsync",
		Tables: []metrics.Table{tab, commits},
		Series: map[string][]metrics.Series{
			"accuracy_over_time": {syncSeries, asyncSeries, tieredSeries},
		},
	}
}
