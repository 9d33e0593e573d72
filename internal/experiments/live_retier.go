package experiments

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/flcore"
	"repro/internal/metrics"
	"repro/internal/tiering"
)

// The live re-tiering extension: TiFL's Section 4.2 profiling is a
// one-shot snapshot, but the paper sketches an online version for clients
// whose performance drifts. This experiment drives the internal/tiering
// Manager inside the tiered-asynchronous engine: half the clients' CPU
// capacity collapses to 10% mid-run, and the Manager-driven run migrates
// them out of the fast tiers at its rebuild points while the static run
// keeps the stale placement.

// LiveRetierOutcome carries both arms' raw results for the acceptance
// test: the static-tier run, the Manager-driven run, the shared accuracy
// target, and each arm's simulated time to reach it.
type LiveRetierOutcome struct {
	Static, Managed         *flcore.TieredAsyncResult
	TargetAcc               float64
	StaticTime, ManagedTime float64
}

// liveRetierDuration scales the simulated budget with the configured round
// count so tiny test scales still produce enough commits to cross several
// rebuild points.
func liveRetierDuration(s Scale) float64 { return 2.5 * float64(s.Rounds) }

// LiveRetierComparison runs the drifting-resource scenario twice under
// identical seeds and initial tiers: once with tiers frozen at the initial
// profile (RetierEvery 0) and once with live re-tiering every 10 commits.
// Exported separately from RunExtensionLiveRetier so tests can assert on
// the raw numbers.
func LiveRetierComparison(s Scale) LiveRetierOutcome {
	sc := s.newScenario("ext-live-retier", cifarSpec(), hetResource, 0)
	prof := core.Profile(sc.clients(s), LatencyModel, core.ProfilerConfig{SyncRounds: 5, Tmax: 1e6, Epochs: 1, Seed: s.Seed + 4})
	duration := liveRetierDuration(s)
	driftAt := 5

	// Half the clients (every even index) collapse to 10% capacity once
	// their tier-local round counter reaches driftAt. The closure latches:
	// a drifted client stays slow even after migrating to a tier whose
	// round counter is still below the threshold.
	mkClients := func() []*flcore.Client {
		cl := sc.clients(s)
		for i := 0; i < len(cl); i += 2 {
			latched := false
			cl[i].Drift = func(round int) float64 {
				if round >= driftAt {
					latched = true
				}
				if latched {
					return 0.1
				}
				return 1
			}
		}
		return cl
	}
	mkManager := func(retierEvery int) *tiering.Manager {
		mgr, err := tiering.NewManager(tiering.Config{
			NumTiers: 5, RetierEvery: retierEvery,
			ClientsPerRound: s.ClientsPerRound, Seed: s.Seed,
		}, prof.Latency)
		if err != nil {
			panic(fmt.Sprintf("experiments: live-retier manager: %v", err))
		}
		return mgr
	}
	run := func(retierEvery int) *flcore.TieredAsyncResult {
		base := s.engineConfig(sc.spec)
		return flcore.RunTieredAsync(flcore.TieredAsyncConfig{
			CommitterConfig: flcore.CommitterConfig{
				ClientsPerRound: s.ClientsPerRound, TierWeight: core.FedATWeights(), Seed: s.Seed,
				Manager: mkManager(retierEvery),
			},
			Duration: duration, EvalInterval: duration / 25,
			BatchSize: 10, LocalEpochs: 1,
			Model: base.Model, Optimizer: base.Optimizer, Latency: LatencyModel,
			EvalBatch: 256,
		}, nil, mkClients(), sc.test)
	}

	static := run(0) // frozen at the initial profile
	managed := run(10)

	// Target: the accuracy both arms reach, so time-to-accuracy is defined
	// for each.
	target := static.FinalAcc
	if managed.FinalAcc < target {
		target = managed.FinalAcc
	}
	return LiveRetierOutcome{
		Static: static, Managed: managed, TargetAcc: target,
		StaticTime:  metrics.TimeToAccuracy(metrics.AccuracyOverTime(&static.Result, "static"), target),
		ManagedTime: metrics.TimeToAccuracy(metrics.AccuracyOverTime(&managed.Result, "managed"), target),
	}
}

// RunExtensionLiveRetier renders the comparison: with mid-run resource
// drift, the Manager-driven run re-tiers the drifted clients into slower
// tiers, keeps the fast tiers committing at full speed, and reaches the
// shared accuracy target in less simulated time than the static-tier run.
func RunExtensionLiveRetier(s Scale) *Output {
	out := LiveRetierComparison(s)
	tab := metrics.Table{
		Title:   "Extension: live re-tiering inside tiered-async under mid-run drift",
		Columns: []string{"tiering", "final accuracy", "time to target [s]", "re-tiers", "migrations"},
	}
	tab.AddRow("static (frozen profile)", out.Static.FinalAcc, out.StaticTime, float64(out.Static.Retiers), float64(out.Static.Migrations))
	tab.AddRow("live (EWMA re-tiering)", out.Managed.FinalAcc, out.ManagedTime, float64(out.Managed.Retiers), float64(out.Managed.Migrations))
	return &Output{
		ID:     "ext_live_retier",
		Title:  "Live re-tiering vs static tiers when client resources drift mid-run",
		Tables: []metrics.Table{tab},
		Series: map[string][]metrics.Series{
			"accuracy_over_time": {
				metrics.AccuracyOverTime(&out.Static.Result, "static"),
				metrics.AccuracyOverTime(&out.Managed.Result, "live re-tiering"),
			},
		},
	}
}
