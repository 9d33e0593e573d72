package experiments

import (
	"repro/internal/core"
	"repro/internal/flcore"
	"repro/internal/metrics"
)

// ChurnArm is one churn rate's measured outcome in the worker-flap sweep.
type ChurnArm struct {
	// Rate is the per-(round, client) flap probability.
	Rate float64
	// FinalAcc is the run's final global test accuracy.
	FinalAcc float64
	// Commits is the number of committed tier rounds inside the shared
	// simulated time budget; SimTime the consumed budget.
	Commits int
	SimTime float64
	// UplinkBytes / DownlinkBytes is the wire traffic actually charged —
	// flapped members move no bytes, so the uplink total is exactly the
	// surviving participations' encoded updates.
	UplinkBytes, DownlinkBytes int64
}

// ChurnSweep runs FedAT-style tiered-async training on the Combine
// scenario once per churn rate in {0, 0.1, 0.2, 0.3} under identical
// seeds, clients, tiers, and simulated time budgets, and returns each
// arm's final accuracy and wire traffic. A flapped cohort member models a
// worker whose connection dropped when its tier round dispatched: its
// update never reaches the round's FedAvg (the aggregate averages the
// survivors), it is charged no wire bytes, and a round whose whole cohort
// flapped consumes its round index and redraws — the exact failure
// semantics the socket runtime implements with dead-member skipping and
// empty-round retries. Exported separately from RunExtensionChurn so the
// acceptance test can assert on the raw numbers: the tiered commit rule
// is churn-robust (final accuracy within a point of the no-churn run at
// moderate rates) and the accounting exact (every counted update comes
// from a member that actually survived its round).
func ChurnSweep(s Scale) []ChurnArm {
	sc := s.newScenario("ext-churn", cifarSpec(), hetCombine, 5)
	tiers, _ := sc.tiers(s)
	duration := 2.5 * float64(s.Rounds)
	base := s.engineConfig(sc.spec)

	run := func(rate float64) ChurnArm {
		res := flcore.RunTieredAsync(flcore.TieredAsyncConfig{
			CommitterConfig: flcore.CommitterConfig{
				ClientsPerRound: s.ClientsPerRound, TierWeight: core.FedATWeights(), Seed: s.Seed,
			},
			Duration: duration, EvalInterval: duration,
			BatchSize: 10, LocalEpochs: 1,
			Model: base.Model, Optimizer: base.Optimizer, Latency: CommLatencyModel,
			EvalBatch: 256, ChurnRate: rate,
		}, core.TierMembers(tiers), sc.clients(s), sc.test)
		return ChurnArm{
			Rate: rate, FinalAcc: res.FinalAcc,
			Commits: len(res.TierRounds), SimTime: res.TotalTime,
			UplinkBytes: res.UplinkBytes, DownlinkBytes: res.DownlinkBytes,
		}
	}

	var arms []ChurnArm
	for _, rate := range []float64{0, 0.1, 0.2, 0.3} {
		arms = append(arms, run(rate))
	}
	return arms
}

// RunExtensionChurn is the worker-churn robustness extension experiment:
// the ChurnSweep rendered as a table (accuracy, committed rounds, wire
// traffic vs the no-churn baseline). FedAT's per-tier synchronous rounds
// degrade gracefully under seeded worker flaps — a smaller surviving
// cohort raises per-round gradient variance but the staleness-discounted
// commit mixing absorbs it, so moderate churn costs a fraction of an
// accuracy point while moving proportionally fewer wire bytes. This is
// the simulated twin of the socket runtime's self-healing path
// (reconnect + redispatch), pinned by the same seeds.
func RunExtensionChurn(s Scale) *Output {
	arms := ChurnSweep(s)
	base := arms[0]

	tab := metrics.Table{
		Title:   "Extension: worker churn robustness (Combine scenario)",
		Columns: []string{"flap rate", "final accuracy", "acc delta vs no churn", "commits", "uplink [KB]", "downlink [KB]"},
	}
	for _, a := range arms {
		tab.AddRow(a.Rate, a.FinalAcc, a.FinalAcc-base.FinalAcc,
			float64(a.Commits), float64(a.UplinkBytes)/1024, float64(a.DownlinkBytes)/1024)
	}
	return &Output{
		ID:     "ext_churn",
		Title:  "Worker churn robustness under seeded flaps",
		Tables: []metrics.Table{tab},
	}
}
