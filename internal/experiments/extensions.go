package experiments

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/flcore"
	"repro/internal/metrics"
	"repro/internal/tiering"
)

// The extension experiments go beyond the paper's figures: they pit TiFL
// against the related-work baselines the paper discusses (FedProx [23],
// FedCS [28], asynchronous FL) under identical conditions, and exercise the
// "online" re-tiering the paper sketches for drifting client performance.

// RunExtensionBaselines compares TiFL's adaptive policy against vanilla
// FedAvg, FedProx (proximal term + partial work on stragglers), FedCS
// (deadline-filtered selection) and asynchronous FL on the Combine
// scenario (resource + quantity + non-IID heterogeneity).
func RunExtensionBaselines(s Scale) *Output {
	sc := s.newScenario("ext-baselines", cifarSpec(), hetCombine, 5)
	tiers, ref := sc.tiers(s)
	prof := core.Profile(ref, LatencyModel, core.ProfilerConfig{SyncRounds: 5, Tmax: 1e6, Epochs: 1, Seed: s.Seed + 4})

	tab := metrics.Table{
		Title:   "Extension: TiFL vs related-work baselines (Combine scenario)",
		Columns: []string{"system", "training time [s]", "final accuracy"},
	}
	var series []metrics.Series
	record := func(name string, res *flcore.Result) {
		tab.AddRow(name, res.TotalTime, res.FinalAcc)
		series = append(series, metrics.AccuracyOverTime(res, name))
	}

	// Vanilla FedAvg.
	cfg := s.engineConfig(sc.spec)
	record("FedAvg (vanilla)", flcore.NewEngine(cfg, sc.clients(s), sc.test).
		Run(&flcore.RandomSelector{NumClients: s.Clients, ClientsPerRound: s.ClientsPerRound}))

	// FedProx: proximal term and stragglers train a single reduced pass.
	prox := cfg
	prox.ProxMu = 0.1
	prox.EpochsFor = func(c *flcore.Client, round int) int { return 1 }
	record("FedProx", flcore.NewEngine(prox, sc.clients(s), sc.test).
		Run(&flcore.RandomSelector{NumClients: s.Clients, ClientsPerRound: s.ClientsPerRound}))

	// FedCS: deadline at the median profiled latency.
	med := medianLatency(prof.Latency)
	record("FedCS (deadline)", flcore.NewEngine(cfg, sc.clients(s), sc.test).
		Run(core.NewDeadlineSelector(prof.Latency, med, s.ClientsPerRound)))

	// TiFL adaptive.
	tiflRes := flcore.NewEngine(cfg, sc.clients(s), sc.test).
		Run(core.NewAdaptiveSelector(tiers, ref, s.adaptiveRun().adaptive))
	record("TiFL (adaptive)", tiflRes)

	// Asynchronous FL with the same simulated-time budget TiFL used.
	budget := tiflRes.TotalTime
	async := flcore.RunAsync(flcore.AsyncConfig{
		Duration: budget, Concurrency: s.ClientsPerRound,
		EvalInterval: budget / 10, Seed: s.Seed,
		BatchSize: 10, LocalEpochs: 1,
		Model: cfg.Model, Optimizer: cfg.Optimizer, Latency: LatencyModel,
		EvalBatch: 256,
	}, sc.clients(s), sc.test)
	record("FedAsync", async)

	return &Output{
		ID:     "ext_baselines",
		Title:  "TiFL vs FedProx / FedCS / asynchronous FL",
		Tables: []metrics.Table{tab},
		Series: map[string][]metrics.Series{"accuracy_over_time": series},
	}
}

func medianLatency(lat map[int]float64) float64 {
	vals := make([]float64, 0, len(lat))
	for _, v := range lat {
		vals = append(vals, v)
	}
	// insertion sort: n ≤ a few hundred
	for i := 1; i < len(vals); i++ {
		for j := i; j > 0 && vals[j] < vals[j-1]; j-- {
			vals[j], vals[j-1] = vals[j-1], vals[j]
		}
	}
	return vals[len(vals)/2]
}

// RunExtensionDrift exercises the online setting of Sections 1/4.2: the
// fastest client group degrades 20x mid-training. Static tiering keeps
// selecting the stale "fast" tier; a tiering.Manager behind the same policy
// (tiering.Selector) re-tiers from observed latencies and keeps round time
// bounded.
func RunExtensionDrift(s Scale) *Output {
	sc := s.newScenario("ext-drift", cifarSpec(), hetResource, 0)
	prof := core.Profile(sc.clients(s), LatencyModel, core.ProfilerConfig{SyncRounds: 5, Tmax: 1e6, Epochs: 1, Seed: s.Seed + 4})
	driftAt := s.Rounds / 3
	mkClients := func() []*flcore.Client {
		cl := sc.clients(s)
		perGroup := s.Clients / 5
		for i := 0; i < perGroup; i++ {
			i := i
			cl[i].Drift = func(round int) float64 {
				if round >= driftAt {
					return 0.05
				}
				return 1
			}
			_ = i
		}
		return cl
	}
	policy := core.StaticPolicy{Name: "fast-leaning", Probs: []float64{0.6, 0.1, 0.1, 0.1, 0.1}}
	cfg := s.engineConfig(sc.spec)

	staticSel := core.NewStaticSelector(core.BuildTiers(prof.Latency, 5, core.Quantile), policy, s.ClientsPerRound)
	staticRes := flcore.NewEngine(cfg, mkClients(), sc.test).Run(staticSel)

	mgr, err := tiering.NewManager(tiering.Config{
		NumTiers: 5, RetierEvery: maxOf(5, s.Rounds/10),
		ClientsPerRound: s.ClientsPerRound, Seed: s.Seed,
	}, prof.Latency)
	if err != nil {
		panic(fmt.Sprintf("experiments: drift manager: %v", err))
	}
	dynRes := flcore.NewEngine(cfg, mkClients(), sc.test).Run(&tiering.Selector{Manager: mgr, Policy: policy})

	tab := metrics.Table{
		Title:   "Extension: static vs dynamic tiering under performance drift",
		Columns: []string{"tiering", "training time [s]", "final accuracy", "re-tiers"},
	}
	tab.AddRow("static", staticRes.TotalTime, staticRes.FinalAcc, 0)
	tab.AddRow("dynamic", dynRes.TotalTime, dynRes.FinalAcc, mgr.Retiers())
	return &Output{
		ID:     "ext_drift",
		Title:  "Online re-tiering when client performance changes mid-training",
		Tables: []metrics.Table{tab},
		Series: map[string][]metrics.Series{
			"accuracy_over_time": {
				metrics.AccuracyOverTime(staticRes, "static"),
				metrics.AccuracyOverTime(dynRes, "dynamic"),
			},
		},
	}
}

func maxOf(a, b int) int {
	if a > b {
		return a
	}
	return b
}
