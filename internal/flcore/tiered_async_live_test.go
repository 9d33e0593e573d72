package flcore_test

// Live-tiering integration tests for the simulated tiered-async engine:
// the real internal/tiering.Manager plugged into TieredAsyncConfig.Manager.
// These live in an external test package because tiering imports flcore.

import (
	"bytes"
	"encoding/gob"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/flcore"
	"repro/internal/nn"
	"repro/internal/simres"
	"repro/internal/tiering"
)

// liveFixture builds a 9-client, 3-CPU-group population. When driftAfter
// ≥ 0, the three fastest clients collapse to 5% of their CPU once their
// tier-local round counter reaches driftAfter — and stay slow from then on
// (the closure latches, so migrating to a tier with a lower round counter
// cannot un-drift them).
func liveFixture(t *testing.T, driftAfter int) ([]*flcore.Client, *dataset.Dataset, flcore.TieredAsyncConfig, map[int]float64) {
	t.Helper()
	train := dataset.Generate(dataset.CIFAR10Like, 600, 1)
	test := dataset.Generate(dataset.CIFAR10Like, 200, 2)
	parts := dataset.PartitionIID(train.Len(), 9, rand.New(rand.NewSource(3)))
	cpus := simres.AssignGroups(9, []float64{4, 1, 0.25})
	clients := flcore.BuildClients(train, test, parts, cpus, 20, 4)
	if driftAfter >= 0 {
		for i := 0; i < 3; i++ {
			latched := false
			clients[i].Drift = func(round int) float64 {
				if round >= driftAfter {
					latched = true
				}
				if latched {
					return 0.05
				}
				return 1
			}
		}
	}
	cfg := flcore.TieredAsyncConfig{
		CommitterConfig: flcore.CommitterConfig{ClientsPerRound: 2, Seed: 7},
		Duration:        240, EvalInterval: 60, BatchSize: 10, LocalEpochs: 1,
		Model: func(rng *rand.Rand) *nn.Model {
			return nn.NewMLP(rng, train.Dim(), []int{8}, 10, 0)
		},
		Optimizer: func(round int) nn.Optimizer { return nn.NewRMSprop(0.01, 0.995) },
		Latency:   simres.DefaultModel,
		EvalBatch: 64,
	}
	prof := core.Profile(clients, cfg.Latency, core.ProfilerConfig{SyncRounds: 3, Tmax: 1e6, Epochs: 1, Seed: 5})
	return clients, test, cfg, prof.Latency
}

func liveManager(t *testing.T, cfg flcore.TieredAsyncConfig, lat map[int]float64, retierEvery int) *tiering.Manager {
	t.Helper()
	mgr, err := tiering.NewManager(tiering.Config{
		NumTiers: 3, RetierEvery: retierEvery,
		ClientsPerRound: cfg.ClientsPerRound, Seed: cfg.Seed,
	}, lat)
	if err != nil {
		t.Fatal(err)
	}
	return mgr
}

// TestTieredAsyncLiveRetierMigratesDriftedClients is the sim half of the
// live-tiering story: fast clients whose resources collapse mid-run must
// migrate out of the fast tier at a rebuild point, and the run must keep
// satisfying the commit invariants throughout.
func TestTieredAsyncLiveRetierMigratesDriftedClients(t *testing.T) {
	clients, test, cfg, lat := liveFixture(t, 4)
	mgr := liveManager(t, cfg, lat, 8)
	cfg.Manager = mgr
	res := flcore.RunTieredAsync(cfg, nil, clients, test)

	if res.Retiers < 1 || res.Migrations < 1 {
		t.Fatalf("drifting clients never re-tiered: retiers=%d migrations=%d", res.Retiers, res.Migrations)
	}
	moved := false
	for i := 0; i < 3; i++ {
		if !slices.Contains(mgr.Tiers()[0], i) {
			moved = true
		}
	}
	if !moved {
		t.Fatalf("no drifted client left tier 0: tiers %v", mgr.Tiers())
	}
	for i, rec := range res.TierRounds {
		if rec.Version != i+1 || rec.Staleness < 0 || rec.Weight <= 0 || rec.Weight > 1 {
			t.Fatalf("commit %d malformed after migration: %+v", i, rec)
		}
	}
	if mgr.Retiers() != res.Retiers {
		t.Fatalf("manager counted %d retiers, result %d", mgr.Retiers(), res.Retiers)
	}
}

// TestTieredAsyncManagedDeterministic pins determinism of the managed
// engine: fresh populations and fresh Managers under the same seed must
// produce bit-identical commit logs and final weights.
func TestTieredAsyncManagedDeterministic(t *testing.T) {
	run := func() *flcore.TieredAsyncResult {
		clients, test, cfg, lat := liveFixture(t, 4)
		cfg.Manager = liveManager(t, cfg, lat, 8)
		return flcore.RunTieredAsync(cfg, nil, clients, test)
	}
	a, b := run(), run()
	if a.Retiers == 0 {
		t.Fatal("fixture no longer re-tiers; the determinism check would be vacuous")
	}
	if !reflect.DeepEqual(a.TierRounds, b.TierRounds) || a.Retiers != b.Retiers || a.Migrations != b.Migrations {
		t.Fatalf("managed runs diverged: %d/%d retiers, %d/%d migrations", a.Retiers, b.Retiers, a.Migrations, b.Migrations)
	}
	for i := range a.Weights {
		if math.Float64bits(a.Weights[i]) != math.Float64bits(b.Weights[i]) {
			t.Fatalf("weights differ at %d", i)
		}
	}
}

// TestTieredAsyncManagerFrozenMatchesStatic anchors the refactor: a
// Manager with re-tiering and adaptive selection off must reproduce the
// legacy static-tier engine bit for bit — against the raw core.BuildTiers
// membership the static path would use, member order included (TierCohort
// draws are permutations over member positions). A non-adaptive Manager
// reads no accuracies, so the managed run pools and scores no tier shard:
// it acquires exactly the clients the static run trains.
func TestTieredAsyncManagerFrozenMatchesStatic(t *testing.T) {
	clients, test, cfg, lat := liveFixture(t, -1)
	mgr := &accuracyCounter{Manager: liveManager(t, cfg, lat, 0)} // RetierEvery 0: frozen
	managedCfg := cfg
	managedCfg.Manager = mgr
	managedSrc := &countingSource{ClientSource: flcore.NewEagerClients(clients)}
	managed := flcore.NewTieredAsyncEngineFrom(managedCfg, nil, managedSrc, test).Run()
	staticSrc := &countingSource{ClientSource: flcore.NewEagerClients(clients)}
	static := flcore.NewTieredAsyncEngineFrom(cfg, core.TierMembers(core.BuildTiers(lat, 3, core.Quantile)), staticSrc, test).Run()

	if len(managed.TierRounds) == 0 {
		t.Fatal("no commits")
	}
	if mgr.observed != 0 || managedSrc.acquired != staticSrc.acquired {
		t.Fatalf("non-adaptive managed run scored tier shards %d times and acquired %d clients, static %d",
			mgr.observed, managedSrc.acquired, staticSrc.acquired)
	}
	if managed.Retiers != 0 || managed.Migrations != 0 {
		t.Fatalf("frozen manager re-tiered: %d/%d", managed.Retiers, managed.Migrations)
	}
	if !reflect.DeepEqual(managed.TierRounds, static.TierRounds) {
		t.Fatalf("frozen-manager commit log diverges from static engine")
	}
	for i := range managed.Weights {
		if math.Float64bits(managed.Weights[i]) != math.Float64bits(static.Weights[i]) {
			t.Fatalf("weights differ at %d", i)
		}
	}
}

// TestTieredAsyncAdaptiveSelectionRuns exercises Algorithm-2 adaptive
// cohort sizing end to end in the sim engine: accuracy feedback arrives at
// eval points, probabilities leave uniform, and boosted rounds stay within
// the credit budget.
func TestTieredAsyncAdaptiveSelectionRuns(t *testing.T) {
	clients, test, cfg, lat := liveFixture(t, -1)
	mgr, err := tiering.NewManager(tiering.Config{
		NumTiers: 3, RetierEvery: 10,
		ClientsPerRound: cfg.ClientsPerRound, Seed: cfg.Seed,
		Adaptive: true, Credits: 3,
	}, lat)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Manager = mgr
	cfg.EvalInterval = 30 // frequent eval → accuracy feedback flows
	res := flcore.RunTieredAsync(cfg, nil, clients, test)
	if len(res.TierRounds) == 0 {
		t.Fatal("no commits")
	}
	grew := false
	for _, rec := range res.TierRounds {
		if len(rec.Selected) > cfg.ClientsPerRound {
			grew = true
		}
		if len(rec.Selected) > 2*cfg.ClientsPerRound {
			t.Fatalf("cohort %v exceeds the 2x boost cap", rec.Selected)
		}
	}
	blob, err := mgr.SnapshotState()
	if err != nil {
		t.Fatal(err)
	}
	var st tiering.State
	if err := gob.NewDecoder(bytes.NewReader(blob)).Decode(&st); err != nil {
		t.Fatal(err)
	}
	uniform := true
	for _, p := range st.Probs {
		if math.Abs(p-1.0/3) > 1e-9 {
			uniform = false
		}
	}
	if uniform {
		t.Fatalf("accuracy feedback never moved the probabilities: %v (boosted rounds seen: %v)", st.Probs, grew)
	}
	for _, c := range st.Credits {
		if c < 0 {
			t.Fatalf("credits went negative: %v", st.Credits)
		}
	}
}

// countingSource counts the clients a run acquires.
type countingSource struct {
	flcore.ClientSource
	acquired int
}

func (s *countingSource) Acquire(id int) *flcore.Client {
	s.acquired++
	return s.ClientSource.Acquire(id)
}

// accuracyCounter counts the accuracies the engine feeds its Manager.
type accuracyCounter struct {
	*tiering.Manager
	observed int
}

func (m *accuracyCounter) ObserveAccuracy(accs []float64) {
	m.observed++
	m.Manager.ObserveAccuracy(accs)
}
