package flnet

import (
	"fmt"
	"math"
	"math/rand"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/flcore"
	"repro/internal/nn"
	"repro/internal/simres"
	"repro/internal/tiering"
)

// retierFixture builds a 9-client, 3-CPU-group population in which the
// three fastest clients collapse to 5% CPU from tier round 4 on (pure
// function of the round, so sim and net drift identically), plus the
// initial profile both Managers are built from.
func retierFixture(t *testing.T) ([]*flcore.Client, *dataset.Dataset, flcore.TieredAsyncConfig, map[int]float64) {
	t.Helper()
	train := dataset.Generate(dataset.CIFAR10Like, 600, 1)
	test := dataset.Generate(dataset.CIFAR10Like, 200, 2)
	parts := dataset.PartitionIID(train.Len(), 9, rand.New(rand.NewSource(3)))
	cpus := simres.AssignGroups(9, []float64{4, 1, 0.25})
	clients := flcore.BuildClients(train, test, parts, cpus, 20, 4)
	for i := 0; i < 3; i++ {
		clients[i].Drift = func(round int) float64 {
			if round >= 4 {
				return 0.05
			}
			return 1
		}
	}
	cfg := flcore.TieredAsyncConfig{
		Duration: 200, ClientsPerRound: 2,
		EvalInterval: 100, Seed: 7, BatchSize: 10, LocalEpochs: 1,
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

func retierManager(t *testing.T, cfg flcore.TieredAsyncConfig, lat map[int]float64) *tiering.Manager {
	t.Helper()
	mgr, err := tiering.NewManager(tiering.Config{
		NumTiers: 3, RetierEvery: 6,
		ClientsPerRound: cfg.ClientsPerRound, Seed: cfg.Seed,
	}, lat)
	if err != nil {
		t.Fatal(err)
	}
	return mgr
}

// TestTieredAsyncNetMigrationByteIdenticalToSim is the migration-parity
// acceptance test, mirroring the sim-vs-net comparison but bit-exact: the
// simulated managed engine runs with mid-run client drift until it
// re-tiers at least once; the distributed run then replays the same seed
// with a fresh Manager over real sockets, in lockstep with the
// simulation's commit schedule, with workers self-reporting the simulated
// latencies. Same seed ⇒ byte-identical global model with and without the
// socket transport, through at least one live migration.
func TestTieredAsyncNetMigrationByteIdenticalToSim(t *testing.T) {
	clients, test, cfg, lat := retierFixture(t)
	simMgr := retierManager(t, cfg, lat)
	simCfg := cfg
	simCfg.Manager = simMgr
	sim := flcore.RunTieredAsync(simCfg, nil, clients, test)
	if sim.Retiers < 1 || sim.Migrations < 1 {
		t.Fatalf("simulation never migrated (retiers=%d); the parity check would be vacuous", sim.Retiers)
	}
	schedule := make([]int, len(sim.TierRounds))
	for i, rec := range sim.TierRounds {
		schedule[i] = rec.Tier
	}

	netMgr := retierManager(t, cfg, lat)
	init := cfg.Model(rand.New(rand.NewSource(cfg.Seed))).WeightsVector()
	agg, err := NewTieredAsyncAggregator("127.0.0.1:0", TieredAsyncConfig{
		GlobalCommits: len(schedule), ClientsPerRound: cfg.ClientsPerRound,
		RoundTimeout: 20 * time.Second, InitialWeights: init, Seed: cfg.Seed,
		Manager: netMgr,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer agg.Close()
	scriptCommitOrder(agg, schedule)

	// Workers run the identical local computation via the engine's
	// deterministic per-client pass and report the simulated latency the
	// model assigns it, so the net Manager's EWMAs see exactly the values
	// the sim Manager saw.
	eng := flcore.NewEngine(flcore.Config{
		Rounds: 1, ClientsPerRound: 1, LocalEpochs: cfg.LocalEpochs,
		BatchSize: cfg.BatchSize, Seed: cfg.Seed,
		Model: cfg.Model, Optimizer: cfg.Optimizer, Latency: cfg.Latency,
	}, clients, nil)
	var reassigns atomic.Int32
	for ci := range clients {
		ci := ci
		var lastLat float64                    // written and read by the same worker goroutine
		go RunWorker(agg.Addr(), WorkerConfig{ //nolint:errcheck // exits with the aggregator
			ClientID: ci, NumSamples: clients[ci].NumSamples(),
			Train: func(round int, weights []float64) ([]float64, int, error) {
				u := eng.TrainClient(round, ci, weights)
				lastLat = u.Latency
				return u.Weights, u.NumSamples, nil
			},
			ReportSeconds:  func(round int) float64 { return lastLat },
			OnTierReassign: func(from, to, numTiers int) { reassigns.Add(1) },
		})
	}
	if err := agg.WaitForWorkers(len(clients), 10*time.Second); err != nil {
		t.Fatal(err)
	}
	res, err := agg.Run(nil)
	if err != nil {
		t.Fatal(err)
	}

	if res.Retiers != sim.Retiers || res.Reassigned != sim.Migrations {
		t.Fatalf("net re-tiered %d times (%d moves), sim %d (%d)", res.Retiers, res.Reassigned, sim.Retiers, sim.Migrations)
	}
	if int(reassigns.Load()) != sim.Migrations {
		t.Errorf("workers saw %d MsgTierReassign, want %d", reassigns.Load(), sim.Migrations)
	}
	if len(res.Log) != len(sim.TierRounds) {
		t.Fatalf("applied %d commits, want %d", len(res.Log), len(sim.TierRounds))
	}
	for i, rec := range res.Log {
		want := sim.TierRounds[i]
		if rec.Tier != want.Tier || rec.TierRound != want.TierRound || rec.Version != want.Version ||
			rec.Staleness != want.Staleness || math.Float64bits(rec.Weight) != math.Float64bits(want.Weight) {
			t.Fatalf("commit %d diverges: net %+v vs sim %+v", i, rec, want)
		}
	}
	if len(res.Weights) != len(sim.Weights) {
		t.Fatalf("weight lengths differ: %d vs %d", len(res.Weights), len(sim.Weights))
	}
	for i := range res.Weights {
		if math.Float64bits(res.Weights[i]) != math.Float64bits(sim.Weights[i]) {
			t.Fatalf("global model diverges at weight %d: %x vs %x",
				i, math.Float64bits(res.Weights[i]), math.Float64bits(sim.Weights[i]))
		}
	}
	// Both Managers must agree on the final placement too.
	for ci := range clients {
		st, _ := simMgr.TierOf(ci)
		nt, _ := netMgr.TierOf(ci)
		if st != nt {
			t.Fatalf("client %d placed in tier %d by sim, %d by net", ci, st, nt)
		}
	}
}

// TestTieredAsyncLockstepStallErrors pins the lockstep failure contract: a
// scheduled tier that can no longer deliver (its only worker keeps dying)
// must fail the run with a stall error promptly — even while other tiers
// sit blocked on their ack channels — rather than hang forever.
func TestTieredAsyncLockstepStallErrors(t *testing.T) {
	agg, err := NewTieredAsyncAggregator("127.0.0.1:0", TieredAsyncConfig{
		GlobalCommits: 4, ClientsPerRound: 1,
		RoundTimeout: 500 * time.Millisecond, InitialWeights: []float64{0}, Seed: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer agg.Close()
	scriptCommitOrder(agg, []int{0, 1, 0, 1})
	go RunWorker(agg.Addr(), WorkerConfig{ClientID: 0, NumSamples: 1, Train: echoTrain(1, 1, 0)}) //nolint:errcheck
	go RunWorker(agg.Addr(), WorkerConfig{ClientID: 1, NumSamples: 1, Train: failTrain()})        //nolint:errcheck
	if err := agg.WaitForWorkers(2, 5*time.Second); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		_, err := agg.Run([][]int{{0}, {1}})
		done <- err
	}()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("stalled lockstep schedule reported success")
		}
	case <-time.After(20 * time.Second):
		t.Fatal("lockstep run hung instead of reporting the stalled tier")
	}
}

// TestTieredAsyncNetWorkerDeathDuringReassign kills a worker in the same
// window its live re-tiering migration happens: the run must keep
// committing with the survivors and still reach the full commit target.
func TestTieredAsyncNetWorkerDeathDuringReassign(t *testing.T) {
	lat := map[int]float64{0: 1, 1: 1.1, 2: 10, 3: 11}
	mgr, err := tiering.NewManager(tiering.Config{
		NumTiers: 2, RetierEvery: 3, ClientsPerRound: 2, Seed: 9,
	}, lat)
	if err != nil {
		t.Fatal(err)
	}
	agg, err := NewTieredAsyncAggregator("127.0.0.1:0", TieredAsyncConfig{
		GlobalCommits: 20, ClientsPerRound: 2,
		RoundTimeout: 2 * time.Second, InitialWeights: []float64{0, 0}, Seed: 9,
		Manager: mgr,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer agg.Close()

	// Worker 1 reports 40 s rounds, so the rebuild at version 3 migrates
	// it into the slow tier — and its training dies from round 4 on,
	// landing the death right at the reassignment window.
	//
	// The slow tier {2,3} is held (see trainGate) until worker 0 is asked for
	// round 1, i.e. until the fast tier's round 0 — and with it worker 1's
	// 40 s observation — has committed, ahead of the rebuild at version 3.
	reported := []float64{1, 40, 10, 11}
	var sawReassign atomic.Int32
	gate := newTrainGate()
	for id := 0; id < 4; id++ {
		id := id
		echo := echoTrain(1, 1, 0)
		train := gate.hold(echo)
		switch id {
		case 0:
			train = gate.openFrom(1, echo)
		case 1:
			train = func(round int, weights []float64) ([]float64, int, error) {
				if round >= 4 {
					return nil, 0, fmt.Errorf("synthetic death during reassign")
				}
				return echo(round, weights)
			}
		}
		go RunWorker(agg.Addr(), WorkerConfig{ //nolint:errcheck
			ClientID: id, NumSamples: 1, Train: train,
			ReportSeconds:  func(round int) float64 { return reported[id] },
			OnTierReassign: func(from, to, numTiers int) { sawReassign.Add(1) },
		})
	}
	if err := agg.WaitForWorkers(4, 5*time.Second); err != nil {
		t.Fatal(err)
	}
	res, err := agg.Run(nil)
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for _, c := range res.Commits {
		total += c
	}
	if total != 20 {
		t.Fatalf("commits %v sum to %d, want 20", res.Commits, total)
	}
	if res.Retiers < 1 {
		t.Fatalf("drifting worker never re-tiered: %+v", res)
	}
	if tier, ok := mgr.TierOf(1); !ok || tier != 1 {
		t.Fatalf("drifted worker 1 in tier %d after rebuild", tier)
	}
	if sawReassign.Load() < 1 {
		t.Error("no worker observed its MsgTierReassign")
	}
}
