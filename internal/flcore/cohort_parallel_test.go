package flcore_test

// A tier round's cohort trains on up to min(GOMAXPROCS, |cohort|)
// goroutines (Engine.trainCohort). Nothing a run reports may depend on that
// count.

import (
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/compress"
	"repro/internal/dataset"
	"repro/internal/flcore"
	"repro/internal/nn"
	"repro/internal/simres"
)

// TestTieredAsyncCohortParallelByteIdentical runs every configuration under
// GOMAXPROCS 1 (the serial loop), 2 and 8 (more workers than the cohort has
// clients) and bit-compares everything the runs report. Deliberately not
// skipped under -short: CI's race pass is what checks that concurrently
// training clients share nothing they write.
func TestTieredAsyncCohortParallelByteIdentical(t *testing.T) {
	fx := newEqFixture(t, 50)
	fx.cfg.ClientsPerRound = 5
	fx.cfg.Duration = 12
	// 12-sample shards on 1 898 parameters: five times the work below which
	// the executor would keep a cohort on one goroutine (cohortWorkers).
	fx.cfg.Model = func(rng *rand.Rand) *nn.Model {
		return nn.NewMLP(rng, fx.train.Dim(), []int{32}, 10, 0)
	}
	int8c := compress.NewInt8(0)

	// resumed captures the first periodic checkpoint as bytes, restores it
	// into a fresh engine and returns that engine's continuation: the
	// checkpoint holds in-flight rounds trained before the cut, the
	// continuation trains the rest.
	resumed := func(t *testing.T, mk func(onCheckpoint func(*flcore.TieredCheckpoint)) *flcore.TieredAsyncEngine) *flcore.TieredAsyncResult {
		var snap []byte
		mk(func(c *flcore.TieredCheckpoint) {
			if snap != nil {
				return
			}
			data, err := c.Encode()
			if err != nil {
				t.Errorf("encoding checkpoint: %v", err)
				return
			}
			snap = data
		}).Run()
		if snap == nil {
			t.Fatal("no checkpoint captured")
		}
		ck, err := flcore.DecodeTieredCheckpoint(snap)
		if err != nil {
			t.Fatal(err)
		}
		eng := mk(nil)
		if err := eng.Restore(ck); err != nil {
			t.Fatal(err)
		}
		return eng.Run()
	}

	cases := []struct {
		name string
		run  func(t *testing.T) *flcore.TieredAsyncResult
	}{
		{"dense", func(t *testing.T) *flcore.TieredAsyncResult {
			return flcore.NewTieredAsyncEngine(fx.cfg, fx.tiers, fx.eagerClients(false), fx.test).Run()
		}},
		{"int8-uplink+delta-int8-downlink", func(t *testing.T) *flcore.TieredAsyncResult {
			cfg := fx.cfg
			cfg.Codec = int8c
			cfg.Downlink = &compress.Downlink{Codec: int8c}
			return flcore.NewTieredAsyncEngine(cfg, fx.tiers, fx.eagerClients(false), fx.test).Run()
		}},
		{"live-retier", func(t *testing.T) *flcore.TieredAsyncResult {
			cfg := fx.cfg
			cfg.Manager = fx.manager(t, 8, false)
			res := flcore.NewTieredAsyncEngine(cfg, nil, fx.eagerClients(true), fx.test).Run()
			if res.Retiers == 0 {
				t.Fatal("never re-tiered; the case is weaker than intended")
			}
			return res
		}},
		{"churn-0.2", func(t *testing.T) *flcore.TieredAsyncResult {
			cfg := fx.cfg
			cfg.Codec = int8c
			cfg.Downlink = &compress.Downlink{Codec: int8c}
			cfg.ChurnRate = 0.2
			return flcore.NewTieredAsyncEngine(cfg, fx.tiers, fx.eagerClients(false), fx.test).Run()
		}},
		{"lazy-source", func(t *testing.T) *flcore.TieredAsyncResult {
			cfg := fx.cfg
			cfg.Codec = int8c
			src := flcore.NewLazyClients(fx.n, fx.factory(false))
			return flcore.NewTieredAsyncEngineFrom(cfg, fx.tiers, src, fx.test).Run()
		}},
		{"checkpoint-restore", func(t *testing.T) *flcore.TieredAsyncResult {
			return resumed(t, func(onCheckpoint func(*flcore.TieredCheckpoint)) *flcore.TieredAsyncEngine {
				cfg := fx.cfg
				cfg.Codec = int8c
				cfg.Manager = fx.manager(t, 8, false)
				if onCheckpoint != nil {
					cfg.CheckpointEvery, cfg.OnCheckpoint = 8, onCheckpoint
				}
				return flcore.NewTieredAsyncEngine(cfg, nil, fx.eagerClients(true), fx.test)
			})
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
			serial := tc.run(t)
			for _, procs := range []int{2, 8} {
				runtime.GOMAXPROCS(procs)
				sameTieredResults(t, serial, tc.run(t))
			}
		})
	}
}

// BenchmarkTieredAsyncCohort measures tier rounds per second of the
// simulated FedAT engine on a small MLP with cohorts of 5 — the executor's
// scaling when run with -cpu=1,2,4. The commit count per iteration is fixed
// by the seed and the simulated duration.
func BenchmarkTieredAsyncCohort(b *testing.B) {
	const n = 50
	train := dataset.Generate(dataset.CIFAR10Like, 50*n, 1)
	parts := dataset.PartitionIID(train.Len(), n, rand.New(rand.NewSource(3)))
	clients := flcore.BuildClients(train, nil, parts, simres.AssignGroups(n, simres.GroupsCIFAR), 0, 4)
	tiers := make([][]int, 5)
	for i := range clients {
		tiers[i*5/n] = append(tiers[i*5/n], i)
	}
	cfg := flcore.TieredAsyncConfig{
		CommitterConfig: flcore.CommitterConfig{ClientsPerRound: 5, Seed: 7},
		Duration:        60,
		Model: func(rng *rand.Rand) *nn.Model {
			return nn.NewMLP(rng, train.Dim(), []int{32}, 10, 0)
		},
		Optimizer: func(round int) nn.Optimizer { return nn.NewRMSprop(0.01, 0.995) },
		Latency:   simres.DefaultModel,
	}
	commits := 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		commits += len(flcore.RunTieredAsync(cfg, tiers, clients, nil).TierRounds)
	}
	b.ReportMetric(float64(commits)/b.Elapsed().Seconds(), "commits/s")
}
