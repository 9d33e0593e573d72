package flnet

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/dataset"
	"repro/internal/flcore"
	"repro/internal/nn"
	"repro/internal/simres"
)

// netFixture builds the same 9-client, 3-tier heterogeneous federation the
// flcore tiered-async tests use, so the distributed run can be compared
// against the simulated engine on identical seed and membership.
func netFixture(t *testing.T, duration float64) ([]*flcore.Client, [][]int, *dataset.Dataset, flcore.TieredAsyncConfig) {
	t.Helper()
	nClients := 9
	train := dataset.Generate(dataset.CIFAR10Like, 600, 1)
	test := dataset.Generate(dataset.CIFAR10Like, 200, 2)
	parts := dataset.PartitionIID(train.Len(), nClients, rand.New(rand.NewSource(3)))
	cpus := simres.AssignGroups(nClients, []float64{4, 1, 0.25})
	clients := flcore.BuildClients(train, test, parts, cpus, 20, 4)
	per := nClients / 3
	tiers := make([][]int, 3)
	for i := 0; i < nClients; i++ {
		tiers[i/per] = append(tiers[i/per], i)
	}
	cfg := flcore.TieredAsyncConfig{
		CommitterConfig: flcore.CommitterConfig{ClientsPerRound: 2, Seed: 7},
		Duration:        duration, EvalInterval: duration, BatchSize: 10, LocalEpochs: 1,
		Model: func(rng *rand.Rand) *nn.Model {
			return nn.NewMLP(rng, train.Dim(), []int{8}, 10, 0)
		},
		Optimizer: func(round int) nn.Optimizer { return nn.NewRMSprop(0.01, 0.995) },
		Latency:   simres.DefaultModel,
		EvalBatch: 64,
	}
	return clients, tiers, test, cfg
}

// rootConfig is the flat or tree root of a spec-built run: the spec's
// CommitterConfig whole, commits commits from the spec's initial model,
// each round collected within 20 s.
func rootConfig(spec flcore.TieredAsyncConfig, commits int) TieredAsyncConfig {
	return TieredAsyncConfig{
		CommitterConfig: spec.CommitterConfig,
		FanInConfig:     FanInConfig{RoundTimeout: 20 * time.Second},
		GlobalCommits:   commits,
		InitialWeights:  spec.Model(rand.New(rand.NewSource(spec.Seed))).WeightsVector(),
	}
}

// tieredConfig is the root of a stub-fleet run: commits commits of
// perRound-client cohorts from init, each round collected within timeout.
func tieredConfig(commits, perRound int, seed int64, timeout time.Duration, init []float64) TieredAsyncConfig {
	return TieredAsyncConfig{
		CommitterConfig: flcore.CommitterConfig{ClientsPerRound: perRound, Seed: seed},
		FanInConfig:     FanInConfig{RoundTimeout: timeout},
		GlobalCommits:   commits, InitialWeights: init,
	}
}

// workerEngine returns the builder of a spec-built fleet's workers: client
// ci trains through the engine's deterministic per-client pass — the
// simulation's own computation — and reports the pass's simulated latency
// as its round time, so a live Manager hears what the simulation's hears.
func workerEngine(spec flcore.TieredAsyncConfig, clients []*flcore.Client) func(ci int) WorkerConfig {
	eng := flcore.NewEngine(flcore.Config{
		Rounds: 1, ClientsPerRound: 1, LocalEpochs: spec.LocalEpochs,
		BatchSize: spec.BatchSize, Seed: spec.Seed,
		Model: spec.Model, Optimizer: spec.Optimizer, Latency: spec.Latency,
	}, clients, nil)
	return func(ci int) WorkerConfig {
		var lat float64 // Train and ReportSeconds run on the worker's one goroutine
		return WorkerConfig{
			ClientID: ci, NumSamples: clients[ci].NumSamples(),
			Train: func(round int, weights []float64) ([]float64, int, error) {
				u := eng.TrainClient(round, ci, weights)
				lat = u.Latency
				return u.Weights, u.NumSamples, nil
			},
			ReportSeconds: func(int) float64 { return lat },
		}
	}
}

// paced delays every round of wc by d: a tier's real-time speed, for runs
// that commit in arrival order.
func paced(wc WorkerConfig, d time.Duration) WorkerConfig {
	train := wc.Train
	wc.Train = func(round int, weights []float64) ([]float64, int, error) {
		time.Sleep(d)
		return train(round, weights)
	}
	return wc
}

// accuracy evaluates weights on test under the spec's model.
func accuracy(spec flcore.TieredAsyncConfig, test *dataset.Dataset, weights []float64) float64 {
	model := spec.Model(rand.New(rand.NewSource(spec.Seed)))
	model.SetWeightsVector(weights)
	acc, _ := model.Evaluate(test.InputTensor(), test.Y, spec.EvalBatch)
	return acc
}

// TestTieredAsyncNetTracksSimulation is the loopback acceptance test: the
// distributed tiered-async protocol, run for exactly as many global commits
// as the simulated engine produced under the same seed, scenario, and tier
// membership, must reach a final-model accuracy within tolerance of the
// simulation. Local training is identical on both paths (workers call
// Engine.TrainClient with the sim's deterministic keying); only the commit
// interleaving differs — real wall clock with per-tier pacing delays here,
// the simulated latency model there.
func TestTieredAsyncNetTracksSimulation(t *testing.T) {
	duration := 60.0
	if testing.Short() {
		duration = 20
	}
	clients, tiers, test, cfg := netFixture(t, duration)
	sim := flcore.RunTieredAsync(cfg, tiers, clients, test)
	if len(sim.TierRounds) == 0 {
		t.Fatal("simulation committed nothing")
	}

	agg, err := NewTieredAsyncAggregator("127.0.0.1:0", rootConfig(cfg, len(sim.TierRounds)))
	if err != nil {
		t.Fatal(err)
	}
	defer agg.Close()

	// Delays proportional to the simulation's per-tier round times (commit
	// rates ≈ 88:50:18 per 60 simulated seconds) recreate the latency spread
	// in real time, so the real-time commit mix tracks the simulated one.
	pacing := []time.Duration{5 * time.Millisecond, 9 * time.Millisecond, 25 * time.Millisecond}
	worker := workerEngine(cfg, clients)
	var assigned atomic.Int32
	for ti, members := range tiers {
		for _, ci := range members {
			wc := paced(worker(ci), pacing[ti])
			wc.OnTierAssign = func(tier, numTiers int) {
				if tier == ti && numTiers == len(tiers) {
					assigned.Add(1)
				}
			}
			go RunWorker(agg.Addr(), wc) //nolint:errcheck
		}
	}
	if err := agg.WaitForWorkers(len(clients), 10*time.Second); err != nil {
		t.Fatal(err)
	}
	res, err := agg.Run(tiers)
	if err != nil {
		t.Fatal(err)
	}

	if got := int(assigned.Load()); got != len(clients) {
		t.Errorf("only %d of %d workers saw their tier assignment", got, len(clients))
	}
	total := 0
	for _, c := range res.Commits {
		total += c
	}
	if total != len(sim.TierRounds) || len(res.Log) != total {
		t.Fatalf("applied %d commits (log %d), want %d", total, len(res.Log), len(sim.TierRounds))
	}
	if res.Commits[0] <= res.Commits[2] {
		t.Errorf("fast tier commits %v not above slow tier", res.Commits)
	}
	for i, rec := range res.Log {
		if rec.Version != i+1 || rec.Staleness < 0 || rec.Weight <= 0 || rec.Weight > 1 {
			t.Fatalf("commit %d malformed: %+v", i, rec)
		}
	}

	netAcc := accuracy(cfg, test, res.Weights)
	t.Logf("commits sim=%v net=%v; accuracy sim=%.4f net=%.4f", sim.Commits, res.Commits, sim.FinalAcc, netAcc)
	if netAcc < 0.4 {
		t.Fatalf("distributed final accuracy %.4f barely above chance", netAcc)
	}
	if diff := math.Abs(netAcc - sim.FinalAcc); diff > 0.2 {
		t.Fatalf("distributed accuracy %.4f diverges from simulated %.4f by %.4f", netAcc, sim.FinalAcc, diff)
	}
}

// TestTieredAsyncNetToleratesDisconnect drops one worker mid-round partway
// through the run: its tier must keep committing with the surviving member
// and the job must still reach the full commit target.
func TestTieredAsyncNetToleratesDisconnect(t *testing.T) {
	init := []float64{0, 0}
	agg, err := NewTieredAsyncAggregator("127.0.0.1:0", tieredConfig(18, 2, 3, 5*time.Second, init))
	if err != nil {
		t.Fatal(err)
	}
	defer agg.Close()
	// Tiers {0,1}, {2,3}, {4,5}; worker 3 dies on its tier's round 1.
	// Tiers 0 and 2 are held (see trainGate) until worker 2 is asked for
	// tier round 2 — by then tier 1's rounds 0 (full) and 1 (solo survivor)
	// have both committed, whoever the scheduler favours.
	tiers := [][]int{{0, 1}, {2, 3}, {4, 5}}
	gate := newTrainGate()
	for id := 0; id < 6; id++ {
		echo := echoTrain(1, 1, 0)
		train := gate.hold(echo)
		switch id {
		case 2:
			train = gate.openFrom(2, echo)
		case 3:
			train = func(round int, weights []float64) ([]float64, int, error) {
				if round >= 1 {
					return nil, 0, fmt.Errorf("synthetic mid-round death")
				}
				return echo(round, weights)
			}
		}
		go RunWorker(agg.Addr(), WorkerConfig{ClientID: id, NumSamples: 1, Train: train}) //nolint:errcheck
	}
	if err := agg.WaitForWorkers(6, 5*time.Second); err != nil {
		t.Fatal(err)
	}
	res, err := agg.Run(tiers)
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for _, c := range res.Commits {
		total += c
	}
	if total != 18 {
		t.Fatalf("commits %v sum to %d, want 18", res.Commits, total)
	}
	// Tier 1 must survive the death of worker 3: commits continue with one
	// live member once rounds ≥ 1 stop reaching it.
	soloCommits := 0
	for _, rec := range res.Log {
		if rec.Tier == 1 && rec.TierRound >= 1 && rec.Clients == 1 {
			soloCommits++
		}
	}
	if tier1 := res.Commits[1]; tier1 == 0 {
		t.Fatal("tier 1 never committed")
	}
	if soloCommits == 0 {
		t.Errorf("no single-survivor commits observed for tier 1: %+v", res.Log)
	}
}

// TestTieredAsyncNetAllWorkersGone exercises the failure path: when every
// tier loses all of its workers before the commit target, Run returns an
// error instead of hanging.
func TestTieredAsyncNetAllWorkersGone(t *testing.T) {
	agg, err := NewTieredAsyncAggregator("127.0.0.1:0", tieredConfig(1000, 2, 4, 2*time.Second, []float64{0}))
	if err != nil {
		t.Fatal(err)
	}
	defer agg.Close()
	for id := 0; id < 4; id++ {
		go RunWorker(agg.Addr(), WorkerConfig{ClientID: id, NumSamples: 1, Train: failTrain()}) //nolint:errcheck
	}
	if err := agg.WaitForWorkers(4, 5*time.Second); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		_, err := agg.Run([][]int{{0, 1}, {2, 3}})
		done <- err
	}()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("run with no surviving workers reported success")
		}
	case <-time.After(20 * time.Second):
		t.Fatal("run hung after losing every worker")
	}
}

// TestTieredAsyncProfileAndRun drives the full pipeline: network profiling,
// server-side tier construction from measured latencies, then the
// tiered-async protocol over the built tiers.
func TestTieredAsyncProfileAndRun(t *testing.T) {
	agg, err := NewTieredAsyncAggregator("127.0.0.1:0", tieredConfig(8, 2, 5, 5*time.Second, []float64{0}))
	if err != nil {
		t.Fatal(err)
	}
	defer agg.Close()
	delays := []time.Duration{0, 0, 120 * time.Millisecond, 120 * time.Millisecond}
	for id, d := range delays {
		go RunWorker(agg.Addr(), WorkerConfig{ClientID: id, NumSamples: 1, Train: echoTrain(1, 1, d)}) //nolint:errcheck
	}
	if err := agg.WaitForWorkers(len(delays), 5*time.Second); err != nil {
		t.Fatal(err)
	}
	res, tiers, dropouts, err := agg.ProfileAndRun(2, 10*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if len(dropouts) != 0 {
		t.Fatalf("unexpected profiling dropouts %v", dropouts)
	}
	if len(tiers) != 2 {
		t.Fatalf("built %d tiers", len(tiers))
	}
	fast := map[int]bool{}
	for _, id := range tiers[0].Members {
		fast[id] = true
	}
	if !fast[0] || !fast[1] {
		t.Fatalf("fast workers not in tier 0: %+v", tiers)
	}
	total := 0
	for _, c := range res.Commits {
		total += c
	}
	if total != 8 {
		t.Fatalf("commits %v sum to %d, want 8", res.Commits, total)
	}
	// Real pacing: the undelayed tier must commit at least as often as the
	// 120 ms tier.
	if res.Commits[0] < res.Commits[1] {
		t.Errorf("fast tier commits %v below slow tier", res.Commits)
	}
}

// TestTieredAsyncSlowTierOutlastsRoundTimeout pins the retry contract: a
// worker slower than one RoundTimeout still commits (its round's updates
// stay valid across the extra collection windows) instead of being
// perpetually one round behind with every late update discarded as stale.
func TestTieredAsyncSlowTierOutlastsRoundTimeout(t *testing.T) {
	agg, err := NewTieredAsyncAggregator("127.0.0.1:0", tieredConfig(3, 1, 9, 150*time.Millisecond, []float64{0}))
	if err != nil {
		t.Fatal(err)
	}
	defer agg.Close()
	// 250 ms per round: past one timeout window, inside the second.
	go RunWorker(agg.Addr(), WorkerConfig{ClientID: 0, NumSamples: 1, Train: echoTrain(1, 1, 250*time.Millisecond)}) //nolint:errcheck
	if err := agg.WaitForWorkers(1, 5*time.Second); err != nil {
		t.Fatal(err)
	}
	res, err := agg.Run([][]int{{0}})
	if err != nil {
		t.Fatal(err)
	}
	if res.Commits[0] != 3 {
		t.Fatalf("slow tier committed %v, want 3", res.Commits)
	}
	if res.Weights[0] == 0 {
		t.Fatal("global model never moved")
	}
}

// TestTieredAsyncToleratesDeadMemberAtStart covers the window between
// profiling and Run: a tier member that registered but dropped before Run
// must not fail the job — its tier keeps training with the survivors.
func TestTieredAsyncToleratesDeadMemberAtStart(t *testing.T) {
	agg, err := NewTieredAsyncAggregator("127.0.0.1:0", tieredConfig(4, 1, 10, 2*time.Second, []float64{0}))
	if err != nil {
		t.Fatal(err)
	}
	defer agg.Close()
	go RunWorker(agg.Addr(), WorkerConfig{ClientID: 0, NumSamples: 1, Train: echoTrain(1, 1, 0)}) //nolint:errcheck
	// Worker 1 registers by hand, then drops before Run.
	c := dialRegister(t, agg.Addr(), Register{ClientID: 1, NumSamples: 1})
	if err := agg.WaitForWorkers(2, 5*time.Second); err != nil {
		t.Fatal(err)
	}
	c.close() //nolint:errcheck
	deadline := time.Now().Add(2 * time.Second)
	for agg.liveWorker(1) != nil && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	res, err := agg.Run([][]int{{0, 1}})
	if err != nil {
		t.Fatal(err)
	}
	if res.Commits[0] != 4 {
		t.Fatalf("commits = %v, want 4 from the surviving worker", res.Commits)
	}
}

// TestTieredAsyncMalformedCommitErrors pins the loud-failure contract: a
// fleet whose model architecture disagrees with the aggregator's (every
// update carries the wrong weight length) must fail the run with an error,
// not hang forever silently discarding every update. Each update is dropped
// at decode, so the tier's rounds come up empty until it gives up; the short
// RoundTimeout only bounds those empty collection windows.
func TestTieredAsyncMalformedCommitErrors(t *testing.T) {
	agg, err := NewTieredAsyncAggregator("127.0.0.1:0", tieredConfig(5, 1, 8, 200*time.Millisecond, []float64{0}))
	if err != nil {
		t.Fatal(err)
	}
	defer agg.Close()
	go RunWorker(agg.Addr(), WorkerConfig{ //nolint:errcheck
		ClientID: 0, NumSamples: 1,
		Train: func(round int, weights []float64) ([]float64, int, error) {
			return []float64{1, 2, 3}, 1, nil // wrong model size
		},
	})
	if err := agg.WaitForWorkers(1, 5*time.Second); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		_, err := agg.Run([][]int{{0}})
		done <- err
	}()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("mismatched-architecture commits reported success")
		}
	case <-time.After(20 * time.Second):
		t.Fatal("run hung on malformed commits instead of erroring")
	}
}

// TestTieredAsyncConfigValidation is the one validation's table: a bad
// spec value is refused by the simulation (a panic) and the flat root, a bad
// fan-in value by the flat root and a tree child, and every refusal names
// the same field.
func TestTieredAsyncConfigValidation(t *testing.T) {
	clients, tiers, _, spec := netFixture(t, 10)
	noState := struct{ flcore.TierManager }{} // a Manager that cannot checkpoint its state
	for _, row := range []struct {
		field string
		spec  func(*flcore.CommitterConfig)
		fan   func(*FanInConfig)
		root  func(*TieredAsyncConfig)
	}{
		{field: "ClientsPerRound", spec: func(c *flcore.CommitterConfig) { c.ClientsPerRound = 0 }},
		{field: "Alpha", spec: func(c *flcore.CommitterConfig) { c.Alpha = -0.5 }},
		{field: "Alpha", spec: func(c *flcore.CommitterConfig) { c.Alpha = 1.5 }},
		{field: "Alpha", spec: func(c *flcore.CommitterConfig) { c.Alpha = math.NaN() }},
		{field: "StalenessExp", spec: func(c *flcore.CommitterConfig) { c.StalenessExp = -1 }},
		{field: "StalenessExp", spec: func(c *flcore.CommitterConfig) { c.StalenessExp = math.NaN() }},
		{field: "CheckpointEvery", spec: func(c *flcore.CommitterConfig) { c.CheckpointEvery = -1 }},
		{field: "TierManagerState", spec: func(c *flcore.CommitterConfig) { c.CheckpointEvery, c.Manager = 1, noState }},
		{field: "RoundTimeout", fan: func(c *FanInConfig) { c.RoundTimeout = -1 }},
		{field: "MaxRetries", fan: func(c *FanInConfig) { c.MaxRetries = -1 }},
		{field: "RejoinWait", fan: func(c *FanInConfig) { c.MaxRetries, c.RejoinWait = 1, -1 }},
		{field: "GlobalCommits", root: func(c *TieredAsyncConfig) { c.GlobalCommits = 0 }},
		{field: "InitialWeights", root: func(c *TieredAsyncConfig) { c.InitialWeights = nil }},
	} {
		root := rootConfig(spec, 1)
		if row.spec != nil {
			sim := spec
			row.spec(&sim.CommitterConfig)
			row.spec(&root.CommitterConfig)
			var msg string
			func() {
				defer func() { msg = fmt.Sprint(recover()) }()
				flcore.NewTieredAsyncEngine(sim, tiers, clients, nil)
			}()
			if !strings.Contains(msg, row.field) {
				t.Errorf("%s: the simulation panicked with %q", row.field, msg)
			}
		}
		if row.fan != nil {
			row.fan(&root.FanInConfig)
			child := ChildConfig{RootAddr: "127.0.0.1:1", Workers: 1}
			row.fan(&child.FanInConfig)
			if _, err := NewChild(child); err == nil || !strings.Contains(err.Error(), row.field) {
				t.Errorf("%s: NewChild returned %v", row.field, err)
			}
		}
		if row.root != nil {
			row.root(&root)
		}
		if _, err := NewTieredAsyncAggregator("127.0.0.1:0", root); err == nil || !strings.Contains(err.Error(), row.field) {
			t.Errorf("%s: NewTieredAsyncAggregator returned %v", row.field, err)
		}
	}
}

func TestTieredAsyncRunRejectsBadTiers(t *testing.T) {
	agg, err := NewTieredAsyncAggregator("127.0.0.1:0", tieredConfig(1, 1, 6, 2*time.Second, []float64{0}))
	if err != nil {
		t.Fatal(err)
	}
	defer agg.Close()
	go RunWorker(agg.Addr(), WorkerConfig{ClientID: 0, NumSamples: 1, Train: echoTrain(1, 1, 0)}) //nolint:errcheck
	if err := agg.WaitForWorkers(1, 5*time.Second); err != nil {
		t.Fatal(err)
	}
	for name, tiers := range map[string][][]int{
		"no tiers":     {},
		"empty tier":   {{0}, {}},
		"duplicate":    {{0}, {0}},
		"unregistered": {{0, 99}},
	} {
		if _, err := agg.Run(tiers); err == nil {
			t.Errorf("%s accepted", name)
		}
	}
	agg.FinishWorkers(0)
}
