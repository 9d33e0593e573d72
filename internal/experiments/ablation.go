package experiments

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/flcore"
	"repro/internal/metrics"
)

// The ablations probe the design choices docs/ARCHITECTURE.md calls out:
// the tiering strategy (the paper's equal-width histogram vs balanced
// quantiles), the tier count m, the Credits budget of Algorithm 2, and the
// ChangeProbs temperature. None have a paper counterpart figure; they
// document how sensitive TiFL's wins are to its knobs.

// RunAblationTiering compares EqualWidth and Quantile tiering under the
// uniform policy on the resource-heterogeneity scenario.
func RunAblationTiering(s Scale) *Output {
	sc := s.newScenario("ablation-tiering", cifarSpec(), hetResource, 0)
	ref := sc.clients(s)
	prof := core.Profile(ref, LatencyModel, core.ProfilerConfig{SyncRounds: 5, Tmax: 1e6, Epochs: 1, Seed: s.Seed + 4})

	tab := metrics.Table{
		Title:   "Ablation: tiering strategy (uniform policy)",
		Columns: []string{"strategy", "tiers", "training time [s]", "final accuracy"},
	}
	for _, strat := range []struct {
		name string
		s    core.TieringStrategy
	}{{"equal-width", core.EqualWidth}, {"quantile", core.Quantile}} {
		tiers := core.BuildTiers(prof.Latency, 5, strat.s)
		// A uniform policy sized to however many tiers materialized.
		probs := make([]float64, len(tiers))
		for i := range probs {
			probs[i] = 1 / float64(len(tiers))
		}
		sel := core.NewStaticSelector(tiers, core.StaticPolicy{Name: "uniform", Probs: probs}, s.ClientsPerRound)
		res := flcore.NewEngine(s.engineConfig(sc.spec), sc.clients(s), sc.test).Run(sel)
		tab.AddRow(strat.name, len(tiers), res.TotalTime, res.FinalAcc)
	}
	return &Output{
		ID:     "ablation_tiering",
		Title:  "Equal-width (paper) vs quantile tiering",
		Tables: []metrics.Table{tab},
	}
}

// RunAblationTierCount varies the number of tiers m under uniform
// selection: more tiers mean tighter latency grouping (faster rounds when a
// fast tier is picked) but fewer clients per tier.
func RunAblationTierCount(s Scale) *Output {
	sc := s.newScenario("ablation-m", cifarSpec(), hetResource, 0)
	ref := sc.clients(s)
	prof := core.Profile(ref, LatencyModel, core.ProfilerConfig{SyncRounds: 5, Tmax: 1e6, Epochs: 1, Seed: s.Seed + 4})
	tab := metrics.Table{
		Title:   "Ablation: tier count m (uniform policy)",
		Columns: []string{"m", "tiers built", "training time [s]", "final accuracy"},
	}
	for _, m := range []int{2, 5, 10} {
		tiers := core.BuildTiers(prof.Latency, m, core.Quantile)
		probs := make([]float64, len(tiers))
		for i := range probs {
			probs[i] = 1 / float64(len(tiers))
		}
		sel := core.NewStaticSelector(tiers, core.StaticPolicy{Name: "uniform", Probs: probs}, s.ClientsPerRound)
		res := flcore.NewEngine(s.engineConfig(sc.spec), sc.clients(s), sc.test).Run(sel)
		tab.AddRow(fmt.Sprintf("%d", m), len(tiers), res.TotalTime, res.FinalAcc)
	}
	return &Output{
		ID:     "ablation_tiercount",
		Title:  "Sensitivity to the number of tiers",
		Tables: []metrics.Table{tab},
	}
}

// RunAblationCredits varies Algorithm 2's per-tier credit budget on the
// Combine scenario: tight credits cap slow-tier participation (time ↓) at
// some accuracy risk once struggling tiers can no longer be boosted.
func RunAblationCredits(s Scale) *Output {
	sc := s.newScenario("ablation-credits", cifarSpec(), hetCombine, 5)
	tiers, ref := sc.tiers(s)
	tab := metrics.Table{
		Title:   "Ablation: adaptive credit budget (Combine scenario)",
		Columns: []string{"credits/tier", "training time [s]", "final accuracy", "fallback rounds"},
	}
	budgets := []int{0, s.Rounds / 2, s.Rounds / 5}
	for _, b := range budgets {
		cfg := core.AdaptiveConfig{
			ClientsPerRound: s.ClientsPerRound, Interval: s.Interval,
			Temperature: 2, TestPerTier: s.TestPerTier, Seed: s.Seed + 5, Credits: b,
		}
		sel := core.NewAdaptiveSelector(tiers, ref, cfg)
		res := flcore.NewEngine(s.engineConfig(sc.spec), sc.clients(s), sc.test).Run(sel)
		label := "unlimited"
		if b > 0 {
			label = fmt.Sprintf("%d", b)
		}
		tab.AddRow(label, res.TotalTime, res.FinalAcc, sel.FallbackRounds())
	}
	return &Output{
		ID:     "ablation_credits",
		Title:  "Sensitivity to Algorithm 2's Credits_t budget",
		Tables: []metrics.Table{tab},
	}
}

// RunAblationTemperature varies the ChangeProbs temperature on the
// non-IID(2) scenario where rebalancing matters most.
func RunAblationTemperature(s Scale) *Output {
	sc := s.newScenario("ablation-temp", cifarSpec(), hetNonIID, 2)
	tiers, ref := sc.tiers(s)
	tab := metrics.Table{
		Title:   "Ablation: ChangeProbs temperature (non-IID(2))",
		Columns: []string{"temperature", "training time [s]", "final accuracy"},
	}
	for _, temp := range []float64{1, 2, 4} {
		cfg := core.AdaptiveConfig{
			ClientsPerRound: s.ClientsPerRound, Interval: s.Interval,
			Temperature: temp, TestPerTier: s.TestPerTier, Seed: s.Seed + 5,
		}
		sel := core.NewAdaptiveSelector(tiers, ref, cfg)
		res := flcore.NewEngine(s.engineConfig(sc.spec), sc.clients(s), sc.test).Run(sel)
		tab.AddRow(fmt.Sprintf("%.0f", temp), res.TotalTime, res.FinalAcc)
	}
	return &Output{
		ID:     "ablation_temperature",
		Title:  "Sensitivity to how sharply low-accuracy tiers are boosted",
		Tables: []metrics.Table{tab},
	}
}
