package flnet

import (
	"math"
	"math/rand"
	"testing"
	"time"

	"repro/internal/compress"
	"repro/internal/flcore"
)

// sameTieredRun asserts two tiered-async socket runs are byte-identical:
// same commit log (tier, round, version, staleness, bit-equal mix weight)
// and bit-equal final global weights.
func sameTieredRun(t *testing.T, got, want *TieredAsyncRunResult, gotName, wantName string) {
	t.Helper()
	if len(got.Log) != len(want.Log) {
		t.Fatalf("%s applied %d commits, %s %d", gotName, len(got.Log), wantName, len(want.Log))
	}
	for i, rec := range got.Log {
		ref := want.Log[i]
		if rec.Tier != ref.Tier || rec.TierRound != ref.TierRound ||
			rec.Version != ref.Version || rec.Staleness != ref.Staleness ||
			math.Float64bits(rec.Weight) != math.Float64bits(ref.Weight) {
			t.Fatalf("commit %d diverges: %s %+v vs %s %+v", i, gotName, rec, wantName, ref)
		}
	}
	if len(got.Weights) != len(want.Weights) {
		t.Fatalf("weight lengths differ: %d vs %d", len(got.Weights), len(want.Weights))
	}
	for i := range got.Weights {
		if math.Float64bits(got.Weights[i]) != math.Float64bits(want.Weights[i]) {
			t.Fatalf("global model diverges at weight %d: %x (%s) vs %x (%s)",
				i, math.Float64bits(got.Weights[i]), gotName,
				math.Float64bits(want.Weights[i]), wantName)
		}
	}
}

// TestDownlinkLosslessByteIdenticalLockstep is the tentpole parity test
// for the flat path: under a Lockstep schedule on the same seed, a run
// with the lossless XOR delta downlink must be byte-identical to the
// plain dense run — same commit log, bit-equal final weights — while
// spending strictly fewer downlink bytes. The delta scheme may only
// change the encoding on the wire, never the values any worker trains
// from.
func TestDownlinkLosslessByteIdenticalLockstep(t *testing.T) {
	commits := 12
	if testing.Short() {
		commits = 6
	}
	clients, tiers, _, cfg := netFixture(t, 0)
	schedule := make([]int, commits)
	for i := range schedule {
		schedule[i] = i % len(tiers)
	}
	init := cfg.Model(rand.New(rand.NewSource(cfg.Seed))).WeightsVector()
	eng := flcore.NewEngine(flcore.Config{
		Rounds: 1, ClientsPerRound: 1, LocalEpochs: cfg.LocalEpochs,
		BatchSize: cfg.BatchSize, Seed: cfg.Seed,
		Model: cfg.Model, Optimizer: cfg.Optimizer, Latency: cfg.Latency,
	}, clients, nil)

	run := func(dl *compress.Downlink) *TieredAsyncRunResult {
		agg, err := NewTieredAsyncAggregator("127.0.0.1:0", TieredAsyncConfig{
			GlobalCommits: commits, ClientsPerRound: cfg.ClientsPerRound,
			RoundTimeout: 20 * time.Second, InitialWeights: init, Seed: cfg.Seed,
			Downlink: dl,
		})
		if err != nil {
			t.Fatal(err)
		}
		defer agg.Close()
		scriptCommitOrder(agg, schedule)
		var cfgs []WorkerConfig
		for _, members := range tiers {
			for _, ci := range members {
				ci := ci
				cfgs = append(cfgs, WorkerConfig{
					ClientID: ci, NumSamples: clients[ci].NumSamples(),
					Train: func(round int, weights []float64) ([]float64, int, error) {
						u := eng.TrainClient(round, ci, weights)
						return u.Weights, u.NumSamples, nil
					},
				})
			}
		}
		wait := startWorkers(t, agg.Addr(), cfgs)
		if err := agg.WaitForWorkers(len(clients), 10*time.Second); err != nil {
			t.Fatal(err)
		}
		res, err := agg.Run(tiers)
		if err != nil {
			t.Fatal(err)
		}
		wait()
		return res
	}

	dense := run(nil)
	delta := run(&compress.Downlink{})
	sameTieredRun(t, delta, dense, "delta", "dense")
	if delta.DownlinkBytes >= dense.DownlinkBytes {
		t.Errorf("lossless delta spent %d downlink bytes, dense %d — no savings",
			delta.DownlinkBytes, dense.DownlinkBytes)
	}
	if delta.DownlinkBytes <= 0 {
		t.Errorf("delta run reported %d downlink bytes", delta.DownlinkBytes)
	}
}

// TestDownlinkTreeLosslessByteIdenticalLockstep extends the parity
// guarantee to the aggregation tree: with delta downlink on both hops
// (root→child pulls and child→leaf broadcasts), the tree run must stay
// byte-identical to the flat dense run under the same Lockstep schedule.
// The tree's pull→commit→pull sequencing is the implicit ack here, so
// this exercises the delta path without any explicit ack state.
func TestDownlinkTreeLosslessByteIdenticalLockstep(t *testing.T) {
	commits := 12
	if testing.Short() {
		commits = 6
	}
	clients, tiers, _, cfg := netFixture(t, 0)
	schedule := make([]int, commits)
	for i := range schedule {
		schedule[i] = i % len(tiers)
	}
	init := cfg.Model(rand.New(rand.NewSource(cfg.Seed))).WeightsVector()
	eng := flcore.NewEngine(flcore.Config{
		Rounds: 1, ClientsPerRound: 1, LocalEpochs: cfg.LocalEpochs,
		BatchSize: cfg.BatchSize, Seed: cfg.Seed,
		Model: cfg.Model, Optimizer: cfg.Optimizer, Latency: cfg.Latency,
	}, clients, nil)
	workerCfg := func(ci int) WorkerConfig {
		return WorkerConfig{
			ClientID: ci, NumSamples: clients[ci].NumSamples(),
			Train: func(round int, weights []float64) ([]float64, int, error) {
				u := eng.TrainClient(round, ci, weights)
				return u.Weights, u.NumSamples, nil
			},
		}
	}
	taCfg := func(dl *compress.Downlink) TieredAsyncConfig {
		return TieredAsyncConfig{
			GlobalCommits: commits, ClientsPerRound: cfg.ClientsPerRound,
			RoundTimeout: 20 * time.Second, InitialWeights: init, Seed: cfg.Seed,
			Downlink: dl,
		}
	}

	// Flat dense reference run.
	flatAgg, err := NewTieredAsyncAggregator("127.0.0.1:0", taCfg(nil))
	if err != nil {
		t.Fatal(err)
	}
	defer flatAgg.Close()
	scriptCommitOrder(flatAgg, schedule)
	var cfgs []WorkerConfig
	for _, members := range tiers {
		for _, ci := range members {
			cfgs = append(cfgs, workerCfg(ci))
		}
	}
	wait := startWorkers(t, flatAgg.Addr(), cfgs)
	if err := flatAgg.WaitForWorkers(len(clients), 10*time.Second); err != nil {
		t.Fatal(err)
	}
	flat, err := flatAgg.Run(tiers)
	if err != nil {
		t.Fatal(err)
	}
	wait()

	// Tree run with delta downlink on both hops.
	root, err := NewTieredAsyncAggregator("127.0.0.1:0", taCfg(&compress.Downlink{}))
	if err != nil {
		t.Fatal(err)
	}
	defer root.Close()
	scriptCommitOrder(root, schedule)
	children := make([]*Child, len(tiers))
	errs := make([]error, len(tiers))
	waitChild := make(chan int, len(tiers))
	for ti, members := range tiers {
		ch, err := NewChild(ChildConfig{
			ID: ti, RootAddr: root.Addr(), Workers: len(members),
			RoundTimeout: 20 * time.Second, Downlink: &compress.Downlink{},
		})
		if err != nil {
			t.Fatal(err)
		}
		children[ti] = ch
		go func(ti int) {
			errs[ti] = children[ti].Run()
			waitChild <- ti
		}(ti)
	}
	defer func() {
		for _, ch := range children {
			ch.Close()
		}
	}()
	var leafWaits []func()
	for ti, members := range tiers {
		var cfgs []WorkerConfig
		for _, ci := range members {
			cfgs = append(cfgs, workerCfg(ci))
		}
		leafWaits = append(leafWaits, startWorkers(t, children[ti].Addr(), cfgs))
	}
	if err := root.WaitForChildren(len(tiers), 15*time.Second); err != nil {
		t.Fatal(err)
	}
	tree, err := root.RunTree()
	if err != nil {
		t.Fatal(err)
	}
	for range tiers {
		ti := <-waitChild
		if errs[ti] != nil {
			t.Errorf("child %d: %v", ti, errs[ti])
		}
	}
	for _, wait := range leafWaits {
		wait()
	}

	sameTieredRun(t, tree, flat, "tree+delta", "flat dense")
	if tree.DownlinkBytes <= 0 {
		t.Errorf("tree delta run reported %d downlink bytes", tree.DownlinkBytes)
	}
}

// TestDownlinkSimSocketByteAgreement is the accounting acceptance test:
// the simulated engine and the socket runtime, run with the same downlink
// mode on the same seed in lockstep, must report identical DownlinkBytes
// — per commit and in total — and a bit-identical final model. Covered
// per subtest: the lossless XOR delta and both lossy codecs (int8
// quantization, deterministic top-k), each with the server-side
// error-feedback residual in play.
func TestDownlinkSimSocketByteAgreement(t *testing.T) {
	duration := 30.0
	if testing.Short() {
		duration = 15
	}
	for _, spec := range []string{"delta", "delta+int8", "delta+topk@0.25"} {
		spec := spec
		t.Run(spec, func(t *testing.T) {
			dl, err := compress.ParseDownlink(spec)
			if err != nil {
				t.Fatal(err)
			}
			clients, tiers, test, cfg := netFixture(t, duration)
			simCfg := cfg
			simCfg.Downlink = dl
			sim := flcore.RunTieredAsync(simCfg, tiers, clients, test)
			if len(sim.TierRounds) < len(tiers)+1 {
				t.Fatalf("simulation committed only %d rounds; parity would be vacuous", len(sim.TierRounds))
			}
			if sim.DownlinkBytes <= 0 {
				t.Fatalf("simulation charged %d downlink bytes", sim.DownlinkBytes)
			}
			schedule := make([]int, len(sim.TierRounds))
			for i, rec := range sim.TierRounds {
				schedule[i] = rec.Tier
			}

			init := cfg.Model(rand.New(rand.NewSource(cfg.Seed))).WeightsVector()
			agg, err := NewTieredAsyncAggregator("127.0.0.1:0", TieredAsyncConfig{
				GlobalCommits: len(schedule), ClientsPerRound: cfg.ClientsPerRound,
				RoundTimeout: 20 * time.Second, InitialWeights: init, Seed: cfg.Seed,
				Downlink: dl,
			})
			if err != nil {
				t.Fatal(err)
			}
			defer agg.Close()
			scriptCommitOrder(agg, schedule)
			eng := flcore.NewEngine(flcore.Config{
				Rounds: 1, ClientsPerRound: 1, LocalEpochs: cfg.LocalEpochs,
				BatchSize: cfg.BatchSize, Seed: cfg.Seed,
				Model: cfg.Model, Optimizer: cfg.Optimizer, Latency: cfg.Latency,
			}, clients, nil)
			var cfgs []WorkerConfig
			for _, members := range tiers {
				for _, ci := range members {
					ci := ci
					cfgs = append(cfgs, WorkerConfig{
						ClientID: ci, NumSamples: clients[ci].NumSamples(),
						Train: func(round int, weights []float64) ([]float64, int, error) {
							u := eng.TrainClient(round, ci, weights)
							return u.Weights, u.NumSamples, nil
						},
					})
				}
			}
			wait := startWorkers(t, agg.Addr(), cfgs)
			if err := agg.WaitForWorkers(len(clients), 10*time.Second); err != nil {
				t.Fatal(err)
			}
			res, err := agg.Run(tiers)
			if err != nil {
				t.Fatal(err)
			}
			wait()

			if len(res.Log) != len(sim.TierRounds) {
				t.Fatalf("applied %d commits, want %d", len(res.Log), len(sim.TierRounds))
			}
			for i, rec := range res.Log {
				want := sim.TierRounds[i]
				if rec.Tier != want.Tier || rec.TierRound != want.TierRound ||
					rec.Version != want.Version || rec.Staleness != want.Staleness ||
					math.Float64bits(rec.Weight) != math.Float64bits(want.Weight) {
					t.Fatalf("commit %d diverges: net %+v vs sim %+v", i, rec, want)
				}
				if rec.DownlinkBytes != want.DownlinkBytes {
					t.Fatalf("commit %d: net charged %d downlink bytes, sim %d",
						i, rec.DownlinkBytes, want.DownlinkBytes)
				}
				if rec.UplinkBytes != want.UplinkBytes {
					t.Fatalf("commit %d: net charged %d uplink bytes, sim %d",
						i, rec.UplinkBytes, want.UplinkBytes)
				}
			}
			if res.DownlinkBytes != sim.DownlinkBytes {
				t.Fatalf("net reported %d total downlink bytes, sim %d",
					res.DownlinkBytes, sim.DownlinkBytes)
			}
			for i := range res.Weights {
				if math.Float64bits(res.Weights[i]) != math.Float64bits(sim.Weights[i]) {
					t.Fatalf("global model diverges at weight %d: %x vs %x",
						i, math.Float64bits(res.Weights[i]), math.Float64bits(sim.Weights[i]))
				}
			}
		})
	}
}
