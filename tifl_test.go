package tifl

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/dataset"
	"repro/internal/flcore"
	"repro/internal/nn"
	"repro/internal/simres"
)

func testPopulation(t testing.TB) ([]*Client, *Dataset) {
	t.Helper()
	train := dataset.Generate(dataset.CIFAR10Like, 2500, 1)
	test := dataset.Generate(dataset.CIFAR10Like, 500, 2)
	rng := rand.New(rand.NewSource(3))
	parts := dataset.PartitionIID(train.Len(), 50, rng)
	cpus := simres.AssignGroups(50, simres.GroupsCIFAR)
	return flcore.BuildClients(train, test, parts, cpus, 40, 4), test
}

func testConfig(rounds int) Config {
	return Config{
		Rounds: rounds, ClientsPerRound: 5, LocalEpochs: 1, BatchSize: 10, Seed: 5,
		Model: func(rng *rand.Rand) *nn.Model {
			return nn.NewMLP(rng, dataset.CIFAR10Like.Dim, []int{24}, 10, 0)
		},
		Optimizer: func(round int) nn.Optimizer { return nn.NewSGD(0.05, 0.9) },
		EvalEvery: 5,
		Parallel:  true,
	}
}

func TestNewBuildsFiveTiers(t *testing.T) {
	clients, _ := testPopulation(t)
	sys, err := New(clients, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(sys.Tiers()) != 5 {
		t.Fatalf("tiers = %d, want 5", len(sys.Tiers()))
	}
	if len(sys.Dropouts()) != 0 {
		t.Fatalf("dropouts = %v", sys.Dropouts())
	}
	if len(sys.Clients()) != 50 {
		t.Fatalf("clients = %d", len(sys.Clients()))
	}
}

func TestNewEmptyErrors(t *testing.T) {
	if _, err := New(nil, Options{}); err == nil {
		t.Fatal("empty population accepted")
	}
}

func TestTrainVanillaVsFast(t *testing.T) {
	clients, test := testPopulation(t)
	sys, err := New(clients, Options{})
	if err != nil {
		t.Fatal(err)
	}
	vanilla := sys.Train(testConfig(15), test, Vanilla())
	fast := sys.Train(testConfig(15), test, Static(PolicyFast))
	if fast.TotalTime >= vanilla.TotalTime {
		t.Fatalf("fast %v not faster than vanilla %v", fast.TotalTime, vanilla.TotalTime)
	}
	if vanilla.FinalAcc <= 0.2 || fast.FinalAcc <= 0.2 {
		t.Fatalf("accuracies too low: vanilla %v fast %v", vanilla.FinalAcc, fast.FinalAcc)
	}
}

func TestTrainAdaptive(t *testing.T) {
	clients, test := testPopulation(t)
	sys, err := New(clients, Options{})
	if err != nil {
		t.Fatal(err)
	}
	res := sys.Train(testConfig(12), test, Adaptive(AdaptiveConfig{Interval: 4, TestPerTier: 60}))
	if res.FinalAcc <= 0.2 {
		t.Fatalf("adaptive accuracy %v", res.FinalAcc)
	}
	if len(res.History) != 12 {
		t.Fatalf("history = %d rounds", len(res.History))
	}
}

func TestEstimateTrainingTime(t *testing.T) {
	clients, _ := testPopulation(t)
	sys, err := New(clients, Options{})
	if err != nil {
		t.Fatal(err)
	}
	est, err := sys.EstimateTrainingTime(PolicyUniform, 100)
	if err != nil {
		t.Fatal(err)
	}
	if est <= 0 {
		t.Fatalf("estimate = %v", est)
	}
	// Slow policy must estimate higher than fast.
	slow, _ := sys.EstimateTrainingTime(PolicySlow, 100)
	fast, _ := sys.EstimateTrainingTime(PolicyFast, 100)
	if slow <= fast {
		t.Fatalf("slow %v ≤ fast %v", slow, fast)
	}
	if _, err := sys.EstimateTrainingTime(StaticPolicy{Name: "bad", Probs: []float64{1}}, 10); err == nil {
		t.Fatal("mismatched policy accepted")
	}
}

func TestPrivacyGuarantee(t *testing.T) {
	clients, _ := testPopulation(t)
	sys, err := New(clients, Options{})
	if err != nil {
		t.Fatal(err)
	}
	base := Guarantee{Epsilon: 1, Delta: 1e-5}
	g, err := sys.PrivacyGuarantee(base, []float64{1, 1, 1, 1, 1}, 5)
	if err != nil {
		t.Fatal(err)
	}
	// 5 equal tiers of 10: q = (1/5)·5/10 = 0.1 → amplified ε = 0.1.
	if math.Abs(g.Epsilon-0.1) > 1e-12 {
		t.Fatalf("amplified epsilon = %v", g.Epsilon)
	}
	if _, err := sys.PrivacyGuarantee(base, []float64{1}, 5); err == nil {
		t.Fatal("mismatched thetas accepted")
	}
}

func TestEqualWidthOption(t *testing.T) {
	clients, _ := testPopulation(t)
	sys, err := New(clients, Options{EqualWidthTiers: true, NumTiers: 5})
	if err != nil {
		t.Fatal(err)
	}
	// Equal-width over the skewed CPU spectrum collapses fast groups
	// together; we only require a valid partition (≥2 tiers, all clients).
	total := 0
	for _, tr := range sys.Tiers() {
		total += len(tr.Members)
	}
	if total != 50 {
		t.Fatalf("tiers cover %d clients", total)
	}
	if len(sys.Tiers()) < 2 {
		t.Fatalf("tiers = %d", len(sys.Tiers()))
	}
}

func TestTrainTieredAsync(t *testing.T) {
	clients, test := testPopulation(t)
	sys, err := New(clients, Options{})
	if err != nil {
		t.Fatal(err)
	}
	cfg := testConfig(1)
	res := sys.TrainTieredAsync(TieredAsyncConfig{
		CommitterConfig: CommitterConfig{ClientsPerRound: 5, Seed: 5},
		Duration:        60, EvalInterval: 20,
		Model: cfg.Model, Optimizer: cfg.Optimizer, EvalBatch: 128,
	}, test)
	if len(res.Commits) != len(sys.Tiers()) {
		t.Fatalf("commit counts %v for %d tiers", res.Commits, len(sys.Tiers()))
	}
	// Tier 1 holds the 4-CPU clients; tier 5 the 0.1-CPU clients. Fast
	// tiers must commit more rounds within the shared simulated budget.
	if res.Commits[0] <= res.Commits[len(res.Commits)-1] {
		t.Fatalf("fast tier commits %v not above slow tier", res.Commits)
	}
	if len(res.TierRounds) == 0 || math.IsNaN(res.FinalAcc) {
		t.Fatalf("empty run: %d commits, final acc %v", len(res.TierRounds), res.FinalAcc)
	}
}

func TestTrainTieredAsyncNet(t *testing.T) {
	clients, test := testPopulation(t)
	sys, err := New(clients, Options{})
	if err != nil {
		t.Fatal(err)
	}
	cfg := testConfig(1)
	commits := 40
	if testing.Short() {
		commits = 15
	}
	// The spec's checkpoint cadence reaches the root: with no
	// CheckpointPath, OnCheckpoint is the only sink.
	var checkpoints []int
	res, acc, err := sys.TrainTieredAsyncNet(TieredAsyncConfig{
		CommitterConfig: CommitterConfig{
			ClientsPerRound: 5, Seed: 5, CheckpointEvery: 5,
			OnCheckpoint: func(c *TieredCheckpoint) { checkpoints = append(checkpoints, c.Version) },
		},
		Model: cfg.Model, Optimizer: cfg.Optimizer, EvalBatch: 128,
	}, NetOptions{GlobalCommits: commits}, test)
	if err != nil {
		t.Fatal(err)
	}
	if len(checkpoints) != commits/5 || checkpoints[0] != 5 {
		t.Fatalf("OnCheckpoint saw versions %v, want every 5th of %d", checkpoints, commits)
	}
	total := 0
	for _, c := range res.Commits {
		total += c
	}
	if total != commits || len(res.Log) != commits {
		t.Fatalf("commits %v (log %d), want %d total", res.Commits, len(res.Log), commits)
	}
	if len(res.Commits) != len(sys.Tiers()) {
		t.Fatalf("%d commit counters for %d tiers", len(res.Commits), len(sys.Tiers()))
	}
	if acc <= 0.15 {
		t.Fatalf("distributed accuracy %v at chance", acc)
	}
	// Validation errors surface instead of panicking.
	spec := CommitterConfig{ClientsPerRound: 5}
	if _, _, err := sys.TrainTieredAsyncNet(TieredAsyncConfig{CommitterConfig: spec}, NetOptions{GlobalCommits: 1}, nil); err == nil {
		t.Fatal("missing Model/Optimizer accepted")
	}
	if _, _, err := sys.TrainTieredAsyncNet(TieredAsyncConfig{
		CommitterConfig: spec, Model: cfg.Model, Optimizer: cfg.Optimizer,
	}, NetOptions{}, nil); err == nil {
		t.Fatal("zero GlobalCommits accepted")
	}
}

// TestTrainTieredAsyncTree drives the hierarchical topology through the
// public API: one child aggregator per profiled tier pre-reduces its
// mini-FedAvg rounds at the edge, and the root only ever applies one
// vector per tier round.
func TestTrainTieredAsyncTree(t *testing.T) {
	clients, test := testPopulation(t)
	sys, err := New(clients, Options{})
	if err != nil {
		t.Fatal(err)
	}
	cfg := testConfig(1)
	commits := 30
	if testing.Short() {
		commits = 12
	}
	res, acc, err := sys.TrainTieredAsyncTree(TieredAsyncConfig{
		CommitterConfig: CommitterConfig{ClientsPerRound: 5, Seed: 5},
		Model:           cfg.Model, Optimizer: cfg.Optimizer, EvalBatch: 128,
	}, NetOptions{
		GlobalCommits:      commits,
		CompressionOptions: CompressionOptions{AdaptiveCompression: true},
	}, test)
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for _, c := range res.Commits {
		total += c
	}
	if total != commits || len(res.Log) != commits {
		t.Fatalf("commits %v (log %d), want %d total", res.Commits, len(res.Log), commits)
	}
	if len(res.Commits) != len(sys.Tiers()) {
		t.Fatalf("%d commit counters for %d tiers", len(res.Commits), len(sys.Tiers()))
	}
	if res.UplinkBytes <= 0 {
		t.Fatalf("children reported %d uplink bytes", res.UplinkBytes)
	}
	if acc <= 0.15 {
		t.Fatalf("tree accuracy %v at chance", acc)
	}
	// Live tiering cannot ride over the tree, asked for by option or by spec.
	live := TieredAsyncConfig{CommitterConfig: CommitterConfig{ClientsPerRound: 5}, Model: cfg.Model, Optimizer: cfg.Optimizer}
	if _, _, err := sys.TrainTieredAsyncTree(live, NetOptions{
		GlobalCommits:  1,
		TieringOptions: TieringOptions{RetierEvery: 5},
	}, nil); err == nil {
		t.Fatal("live tiering over the tree accepted")
	}
	live.Manager = struct{ flcore.TierManager }{}
	if _, _, err := sys.TrainTieredAsyncTree(live, NetOptions{GlobalCommits: 1}, nil); err == nil {
		t.Fatal("a Manager over the tree accepted")
	}
}

// TestTrainTieredAsyncLiveRetier drives the public live-tiering surface:
// Options.RetierEvery makes the simulated tiered-async job re-tier from
// observed latencies when client resources drift mid-run.
func TestTrainTieredAsyncLiveRetier(t *testing.T) {
	clients, test := testPopulation(t)
	// The fastest CPU group collapses to 5% capacity from tier round 3 on
	// (latched, so migrating to a low-round tier cannot un-drift them).
	for i := 0; i < 10; i++ {
		latched := false
		clients[i].Drift = func(round int) float64 {
			if round >= 3 {
				latched = true
			}
			if latched {
				return 0.05
			}
			return 1
		}
	}
	sys, err := New(clients, Options{TieringOptions: TieringOptions{RetierEvery: 10, EWMABeta: 0.5}})
	if err != nil {
		t.Fatal(err)
	}
	cfg := testConfig(1)
	res := sys.TrainTieredAsync(TieredAsyncConfig{
		CommitterConfig: CommitterConfig{ClientsPerRound: 5, Seed: 5},
		Duration:        120, EvalInterval: 40,
		Model: cfg.Model, Optimizer: cfg.Optimizer, EvalBatch: 128,
	}, test)
	if res.Retiers < 1 || res.Migrations < 1 {
		t.Fatalf("drifting clients never re-tiered: retiers=%d migrations=%d", res.Retiers, res.Migrations)
	}
	if len(res.TierRounds) == 0 || math.IsNaN(res.FinalAcc) {
		t.Fatalf("empty run: %d commits, final acc %v", len(res.TierRounds), res.FinalAcc)
	}
}

// TestTrainTieredAsyncAdaptiveSelection exercises Algorithm-2 adaptive
// cohort sizing through the public API: boosted cohorts appear, bounded by
// the credit budget and the 2x cap.
func TestTrainTieredAsyncAdaptiveSelection(t *testing.T) {
	clients, test := testPopulation(t)
	sys, err := New(clients, Options{TieringOptions: TieringOptions{AdaptiveSelection: true, Credits: 5}})
	if err != nil {
		t.Fatal(err)
	}
	cfg := testConfig(1)
	res := sys.TrainTieredAsync(TieredAsyncConfig{
		CommitterConfig: CommitterConfig{ClientsPerRound: 5, Seed: 5},
		Duration:        60, EvalInterval: 15,
		Model: cfg.Model, Optimizer: cfg.Optimizer, EvalBatch: 128,
	}, test)
	if len(res.TierRounds) == 0 {
		t.Fatal("no commits")
	}
	for _, rec := range res.TierRounds {
		if len(rec.Selected) > 10 {
			t.Fatalf("cohort %v exceeds the 2x boost cap", rec.Selected)
		}
	}
}

// TestTrainTieredAsyncNetLiveRetier runs live tiering over loopback TCP:
// NetOptions.RetierEvery installs a Manager on the aggregator and the
// adaptive codec policy keeps fast tiers dense while slow tiers compress.
func TestTrainTieredAsyncNetLiveRetier(t *testing.T) {
	clients, test := testPopulation(t)
	sys, err := New(clients, Options{})
	if err != nil {
		t.Fatal(err)
	}
	cfg := testConfig(1)
	commits := 30
	if testing.Short() {
		commits = 12
	}
	res, acc, err := sys.TrainTieredAsyncNet(TieredAsyncConfig{
		CommitterConfig: CommitterConfig{ClientsPerRound: 5, Seed: 5},
		Model:           cfg.Model, Optimizer: cfg.Optimizer, EvalBatch: 128,
	}, NetOptions{
		GlobalCommits:      commits,
		TieringOptions:     TieringOptions{RetierEvery: 50},
		CompressionOptions: CompressionOptions{AdaptiveCompression: true},
	}, test)
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for _, c := range res.Commits {
		total += c
	}
	if total != commits {
		t.Fatalf("commits %v sum to %d, want %d", res.Commits, total, commits)
	}
	if acc <= 0.15 {
		t.Fatalf("distributed accuracy %v at chance", acc)
	}
	// With mixed per-tier codecs some commits must be cheaper than dense.
	if res.UplinkBytes <= 0 {
		t.Fatalf("no uplink accounting: %d", res.UplinkBytes)
	}
}

func TestWorkerCodecPolicy(t *testing.T) {
	topk := TopKCodec(0.1)
	uniform := NetOptions{CompressionOptions: CompressionOptions{Compression: topk}}
	if uniform.TierCodec(0, 5) != topk || uniform.TierCodec(4, 5) != topk {
		t.Fatal("uniform compression must ignore tiers")
	}
	adaptive := NetOptions{CompressionOptions: CompressionOptions{AdaptiveCompression: true, Compression: topk}}
	if adaptive.TierCodec(0, 5) != nil || adaptive.TierCodec(2, 5) != nil {
		t.Fatal("fast half must stay dense")
	}
	if adaptive.TierCodec(3, 5) != topk || adaptive.TierCodec(4, 5) != topk {
		t.Fatal("slow half must use the configured codec")
	}
	// Without a configured codec the slow half defaults to top-k@10%.
	fallback := NetOptions{CompressionOptions: CompressionOptions{AdaptiveCompression: true}}
	if fallback.TierCodec(4, 5) == nil || fallback.TierCodec(0, 5) != nil {
		t.Fatal("default adaptive codec policy broken")
	}
	// Two tiers: ceil(2/2)=1 fast tier, one compressed tier.
	if adaptive.TierCodec(0, 2) != nil || adaptive.TierCodec(1, 2) != topk {
		t.Fatal("two-tier split wrong")
	}
}

func TestProfilerDropoutsSurface(t *testing.T) {
	clients, _ := testPopulation(t)
	sys, err := New(clients, Options{Profiler: ProfilerConfig{SyncRounds: 3, Tmax: 2.0, Epochs: 1, Seed: 1}})
	if err != nil {
		t.Fatal(err)
	}
	if len(sys.Dropouts()) == 0 {
		t.Fatal("tight Tmax should exclude the 0.1-CPU clients")
	}
}
