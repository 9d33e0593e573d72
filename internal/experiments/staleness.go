package experiments

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/flcore"
	"repro/internal/metrics"
)

// The Alpha/StalenessExp ablation from the ROADMAP: the tiered-async
// engine mixes every committed tier round at rate
// Alpha · w_tier · (staleness+1)^(−StalenessExp). This sweep varies the
// staleness exponent at the default mixing rate and the mixing rate at the
// default exponent on the Combine scenario (resource + quantity + non-IID
// heterogeneity), under one shared simulated budget.

// StalenessArm is one (Alpha, StalenessExp) configuration's outcome.
type StalenessArm struct {
	Alpha, StalenessExp float64
	FinalAcc            float64
	SimTime             float64
	Commits             int
}

// StalenessSweep runs the ablation arms under identical seeds, clients,
// and tiers. Exported separately from RunExtensionStaleness so tests can
// assert on the raw numbers.
func StalenessSweep(s Scale) []StalenessArm {
	sc := s.newScenario("ext-staleness", cifarSpec(), hetCombine, 5)
	tiers, _ := sc.tiers(s)
	duration := 2.5 * float64(s.Rounds)
	base := s.engineConfig(sc.spec)

	// Staleness exponents at the default mixing rate, then mixing rates at
	// the default exponent — both dimensions without the full cross
	// product.
	configs := []struct{ alpha, exp float64 }{
		{0.6, 1e-9}, // effectively exponent 0: no staleness discount
		{0.6, 0.25},
		{0.6, 0.5}, // the engine default
		{0.6, 1.0},
		{0.3, 0.5},
		{0.9, 0.5},
	}
	arms := make([]StalenessArm, 0, len(configs))
	for _, c := range configs {
		res := flcore.RunTieredAsync(flcore.TieredAsyncConfig{
			CommitterConfig: flcore.CommitterConfig{
				ClientsPerRound: s.ClientsPerRound, Alpha: c.alpha, StalenessExp: c.exp,
				TierWeight: core.FedATWeights(), Seed: s.Seed,
			},
			Duration: duration, EvalInterval: duration,
			BatchSize: 10, LocalEpochs: 1,
			Model: base.Model, Optimizer: base.Optimizer, Latency: LatencyModel,
			EvalBatch: 256,
		}, core.TierMembers(tiers), sc.clients(s), sc.test)
		arms = append(arms, StalenessArm{
			Alpha: c.alpha, StalenessExp: c.exp,
			FinalAcc: res.FinalAcc, SimTime: res.TotalTime,
			Commits: len(res.TierRounds),
		})
	}
	return arms
}

// RunExtensionStaleness renders the ablation as a table: each arm's final
// accuracy and commit count on the shared budget.
func RunExtensionStaleness(s Scale) *Output {
	arms := StalenessSweep(s)
	tab := metrics.Table{
		Title:   "Ablation: tiered-async Alpha / StalenessExp (Combine scenario)",
		Columns: []string{"configuration", "final accuracy", "commits", "training time [s]"},
	}
	for _, a := range arms {
		exp := a.StalenessExp
		if exp < 1e-6 {
			exp = 0
		}
		tab.AddRow(fmt.Sprintf("alpha=%.1f exp=%.2f", a.Alpha, exp), a.FinalAcc, float64(a.Commits), a.SimTime)
	}
	return &Output{
		ID:     "ext_staleness",
		Title:  "Tiered-async mixing-rate and staleness-discount ablation",
		Tables: []metrics.Table{tab},
	}
}
