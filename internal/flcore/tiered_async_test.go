package flcore

import (
	"math"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/dataset"
	"repro/internal/nn"
	"repro/internal/simres"
)

// tieredFixture builds a small heterogeneous population split into tiers by
// CPU group (fastest first), mirroring how core.BuildTiers orders tiers.
func tieredFixture(t *testing.T, nClients int) ([]*Client, [][]int, *dataset.Dataset, TieredAsyncConfig) {
	t.Helper()
	train := dataset.Generate(dataset.CIFAR10Like, 600, 1)
	test := dataset.Generate(dataset.CIFAR10Like, 200, 2)
	parts := dataset.PartitionIID(train.Len(), nClients, rand.New(rand.NewSource(3)))
	cpus := simres.AssignGroups(nClients, []float64{4, 1, 0.25})
	clients := BuildClients(train, test, parts, cpus, 20, 4)
	per := nClients / 3
	tiers := make([][]int, 3)
	for i := 0; i < nClients; i++ {
		tiers[i/per] = append(tiers[i/per], i)
	}
	cfg := TieredAsyncConfig{
		CommitterConfig: CommitterConfig{ClientsPerRound: 2, Seed: 7},
		Duration:        120, EvalInterval: 40, BatchSize: 10, LocalEpochs: 1,
		Model: func(rng *rand.Rand) *nn.Model {
			return nn.NewMLP(rng, train.Dim(), []int{8}, 10, 0)
		},
		Optimizer: func(round int) nn.Optimizer { return nn.NewRMSprop(0.01, 0.995) },
		Latency:   simres.DefaultModel,
		EvalBatch: 64,
	}
	return clients, tiers, test, cfg
}

func TestTieredAsyncDeterministicHistories(t *testing.T) {
	clients, tiers, test, cfg := tieredFixture(t, 9)
	a := RunTieredAsync(cfg, tiers, clients, test)
	b := RunTieredAsync(cfg, tiers, clients, test)
	if len(a.TierRounds) == 0 {
		t.Fatal("no tier rounds committed")
	}
	if !reflect.DeepEqual(a.TierRounds, b.TierRounds) {
		t.Fatalf("commit logs differ:\n%+v\nvs\n%+v", a.TierRounds[:3], b.TierRounds[:3])
	}
	if !reflect.DeepEqual(a.Commits, b.Commits) {
		t.Fatalf("commit counts differ: %v vs %v", a.Commits, b.Commits)
	}
	for i := range a.History {
		ra, rb := a.History[i], b.History[i]
		if ra.Round != rb.Round || ra.SimTime != rb.SimTime ||
			math.Float64bits(ra.Acc) != math.Float64bits(rb.Acc) ||
			math.Float64bits(ra.Loss) != math.Float64bits(rb.Loss) {
			t.Fatalf("history[%d] differs: %+v vs %+v", i, ra, rb)
		}
	}
	for i := range a.Weights {
		if a.Weights[i] != b.Weights[i] {
			t.Fatalf("weights differ at %d", i)
		}
	}
}

func TestTieredAsyncFastTiersCommitMore(t *testing.T) {
	clients, tiers, test, cfg := tieredFixture(t, 9)
	res := RunTieredAsync(cfg, tiers, clients, test)
	if len(res.Commits) != 3 {
		t.Fatalf("commits = %v", res.Commits)
	}
	// The fastest tier (16x the CPU of the slowest) must commit strictly
	// more rounds than the slowest within the same simulated budget.
	if res.Commits[0] <= res.Commits[2] {
		t.Fatalf("fast tier commits %d not above slow tier %d", res.Commits[0], res.Commits[2])
	}
	if res.TotalTime > cfg.Duration {
		t.Fatalf("simulated time %v exceeds budget %v", res.TotalTime, cfg.Duration)
	}
}

func TestTieredAsyncTierRoundInvariants(t *testing.T) {
	clients, tiers, test, cfg := tieredFixture(t, 9)
	var fromHook []TierRoundRecord
	cfg.OnCommit = func(rec TierRoundRecord) { fromHook = append(fromHook, rec) }
	res := RunTieredAsync(cfg, tiers, clients, test)
	if !reflect.DeepEqual(fromHook, res.TierRounds) {
		t.Fatal("OnCommit stream differs from TierRounds log")
	}
	tierRound := make(map[int]int)
	prevTime := 0.0
	for i, rec := range res.TierRounds {
		if rec.Version != i+1 {
			t.Fatalf("commit %d has version %d", i, rec.Version)
		}
		if rec.TierRound != tierRound[rec.Tier] {
			t.Fatalf("tier %d round %d out of order (want %d)", rec.Tier, rec.TierRound, tierRound[rec.Tier])
		}
		tierRound[rec.Tier]++
		if rec.SimTime < prevTime {
			t.Fatalf("commit %d goes back in time: %v < %v", i, rec.SimTime, prevTime)
		}
		prevTime = rec.SimTime
		if rec.Staleness < 0 || rec.Weight <= 0 || rec.Weight > 1 {
			t.Fatalf("commit %d: staleness %d weight %v", i, rec.Staleness, rec.Weight)
		}
		if len(rec.Selected) != cfg.ClientsPerRound {
			t.Fatalf("commit %d selected %d clients", i, len(rec.Selected))
		}
		for _, ci := range rec.Selected {
			if ci/3 != rec.Tier {
				t.Fatalf("commit %d: client %d not in tier %d", i, ci, rec.Tier)
			}
		}
	}
}

func TestTieredAsyncTierWeightFavorsSlow(t *testing.T) {
	clients, tiers, test, cfg := tieredFixture(t, 9)
	// Inverted-frequency weighting: a committing tier is weighted by its
	// mirror tier's commit share, so the slow tier's rare commits carry
	// more weight than the fast tier's frequent ones.
	cfg.TierWeight = func(tier int, commits []int) float64 {
		total := 0
		for _, c := range commits {
			total += c
		}
		mirror := len(commits) - 1 - tier
		return float64(commits[mirror]+1) / float64(total+len(commits))
	}
	res := RunTieredAsync(cfg, tiers, clients, test)
	var fastSum, slowSum float64
	var fastN, slowN int
	for _, rec := range res.TierRounds {
		switch rec.Tier {
		case 0:
			fastSum += rec.Weight
			fastN++
		case 2:
			slowSum += rec.Weight
			slowN++
		}
	}
	if fastN == 0 || slowN == 0 {
		t.Fatalf("commit mix fast=%d slow=%d", fastN, slowN)
	}
	if slowSum/float64(slowN) <= fastSum/float64(fastN) {
		t.Fatalf("mean slow-tier weight %v not above fast-tier %v",
			slowSum/float64(slowN), fastSum/float64(fastN))
	}
}

func TestTieredAsyncValidation(t *testing.T) {
	clients, tiers, test, cfg := tieredFixture(t, 9)
	for name, breakIt := range map[string]func(*TieredAsyncConfig, *[][]int){
		"zero duration":  func(c *TieredAsyncConfig, _ *[][]int) { c.Duration = 0 },
		"no clients":     func(c *TieredAsyncConfig, _ *[][]int) { c.ClientsPerRound = 0 },
		"nil model":      func(c *TieredAsyncConfig, _ *[][]int) { c.Model = nil },
		"zero latency":   func(c *TieredAsyncConfig, _ *[][]int) { c.Latency = simres.LatencyModel{} },
		"empty tier":     func(_ *TieredAsyncConfig, tt *[][]int) { (*tt)[1] = nil },
		"no tiers":       func(_ *TieredAsyncConfig, tt *[][]int) { *tt = nil },
		"member too big": func(_ *TieredAsyncConfig, tt *[][]int) { (*tt)[0] = []int{99} },
		"overlapping tiers": func(_ *TieredAsyncConfig, tt *[][]int) {
			(*tt)[0] = append([]int(nil), (*tt)[0]...)
			(*tt)[0][0] = (*tt)[1][0]
		},
	} {
		c := cfg
		tt := append([][]int(nil), tiers...)
		breakIt(&c, &tt)
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: no panic", name)
				}
			}()
			NewTieredAsyncEngine(c, tt, clients, test)
		}()
	}
}

func TestTieredAsyncLearns(t *testing.T) {
	if testing.Short() {
		t.Skip("training run in -short mode")
	}
	clients, tiers, test, cfg := tieredFixture(t, 9)
	cfg.Duration = 400
	res := RunTieredAsync(cfg, tiers, clients, test)
	if math.IsNaN(res.FinalAcc) {
		t.Fatal("no final evaluation")
	}
	// 10-class synthetic data: anything clearly above chance shows the
	// cross-tier commits actually train the global model.
	if res.FinalAcc < 0.2 {
		t.Fatalf("final accuracy %v barely above chance", res.FinalAcc)
	}
}
