package flnet

import (
	"errors"
	"math"
	"math/rand"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/compress"
	"repro/internal/flcore"
)

// startChildren builds one Child per tier against the root, starts their
// Run loops, and returns the children plus a wait function that checks
// every Run returned nil.
func startChildren(t *testing.T, rootAddr string, tiers [][]int) ([]*Child, func()) {
	t.Helper()
	children := make([]*Child, len(tiers))
	errs := make([]error, len(tiers))
	var wg sync.WaitGroup
	for ti, members := range tiers {
		ch, err := NewChild(ChildConfig{
			ID: ti, RootAddr: rootAddr, Workers: len(members),
			RoundTimeout: 20 * time.Second,
		})
		if err != nil {
			t.Fatal(err)
		}
		children[ti] = ch
		wg.Add(1)
		go func(ti int) {
			defer wg.Done()
			errs[ti] = children[ti].Run()
		}(ti)
	}
	t.Cleanup(func() {
		for _, ch := range children {
			ch.Close()
		}
	})
	return children, func() {
		wg.Wait()
		for ti, err := range errs {
			if err != nil {
				t.Errorf("child %d: %v", ti, err)
			}
		}
	}
}

// TestTreeMatchesFlatLockstep is the tentpole equivalence test: a 1-root +
// 3-children tree run under a Lockstep schedule must be byte-identical to
// the flat TieredAsyncAggregator run under the same schedule on the same
// seed — same commit log (tier, round, version, staleness, mix weight) and
// bit-equal final global weights. The tree's commit→pull reply cycle is
// exactly the lockstep dispatch-at-commit discipline, so any divergence
// means the child fan-in, the wire codecs, or the root committer changed
// semantics. Covered per subtest: dense fast wire, int8 quantization, and
// top-k sparsification (both with error feedback).
func TestTreeMatchesFlatLockstep(t *testing.T) {
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
	workerCfg := func(ci int, spec string) WorkerConfig {
		wc := WorkerConfig{
			ClientID: ci, NumSamples: clients[ci].NumSamples(),
			Train: func(round int, weights []float64) ([]float64, int, error) {
				u := eng.TrainClient(round, ci, weights)
				return u.Weights, u.NumSamples, nil
			},
		}
		if spec != "" {
			codec, err := compress.Parse(spec)
			if err != nil {
				t.Fatal(err)
			}
			wc.Codec = codec
		}
		return wc
	}
	taCfg := func() TieredAsyncConfig {
		return TieredAsyncConfig{
			GlobalCommits: commits, ClientsPerRound: cfg.ClientsPerRound,
			RoundTimeout: 20 * time.Second, InitialWeights: init, Seed: cfg.Seed,
		}
	}

	for _, tc := range []struct{ name, spec string }{
		{"dense", ""},
		{"int8", "int8"},
		{"topk", "topk@0.25"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			// Flat reference run.
			flatAgg, err := NewTieredAsyncAggregator("127.0.0.1:0", taCfg())
			if err != nil {
				t.Fatal(err)
			}
			defer flatAgg.Close()
			scriptCommitOrder(flatAgg, schedule)
			var cfgs []WorkerConfig
			for _, members := range tiers {
				for _, ci := range members {
					cfgs = append(cfgs, workerCfg(ci, tc.spec))
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

			// Tree run: one child aggregator per tier, same seed and schedule.
			root, err := NewTieredAsyncAggregator("127.0.0.1:0", taCfg())
			if err != nil {
				t.Fatal(err)
			}
			defer root.Close()
			scriptCommitOrder(root, schedule)
			children, waitChildren := startChildren(t, root.Addr(), tiers)
			var leafWaits []func()
			for ti, members := range tiers {
				var cfgs []WorkerConfig
				for _, ci := range members {
					cfgs = append(cfgs, workerCfg(ci, tc.spec))
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
			waitChildren()
			for _, wait := range leafWaits {
				wait()
			}

			if len(tree.Log) != len(flat.Log) {
				t.Fatalf("tree applied %d commits, flat %d", len(tree.Log), len(flat.Log))
			}
			for i, rec := range tree.Log {
				want := flat.Log[i]
				if rec.Tier != want.Tier || rec.TierRound != want.TierRound ||
					rec.Version != want.Version || rec.Staleness != want.Staleness ||
					math.Float64bits(rec.Weight) != math.Float64bits(want.Weight) {
					t.Fatalf("commit %d diverges: tree %+v vs flat %+v", i, rec, want)
				}
			}
			if len(tree.Weights) != len(flat.Weights) {
				t.Fatalf("weight lengths differ: %d vs %d", len(tree.Weights), len(flat.Weights))
			}
			for i := range tree.Weights {
				if math.Float64bits(tree.Weights[i]) != math.Float64bits(flat.Weights[i]) {
					t.Fatalf("global model diverges at weight %d: %x vs %x",
						i, math.Float64bits(tree.Weights[i]), math.Float64bits(flat.Weights[i]))
				}
			}
			if tree.UplinkBytes != flat.UplinkBytes {
				t.Errorf("tree reported %d uplink bytes, flat %d", tree.UplinkBytes, flat.UplinkBytes)
			}
		})
	}
}

// TestTreeChildDeathDegrades is the chaos case: killing one child
// aggregator mid-run (taking its whole leaf fleet with it) must degrade
// that tier — the remaining children keep committing until the target — and
// the final model must stay within the flat run's accuracy band.
func TestTreeChildDeathDegrades(t *testing.T) {
	commits := 18
	if testing.Short() {
		commits = 9
	}
	clients, tiers, test, cfg := netFixture(t, 0)
	init := cfg.Model(rand.New(rand.NewSource(cfg.Seed))).WeightsVector()
	eng := flcore.NewEngine(flcore.Config{
		Rounds: 1, ClientsPerRound: 1, LocalEpochs: cfg.LocalEpochs,
		BatchSize: cfg.BatchSize, Seed: cfg.Seed,
		Model: cfg.Model, Optimizer: cfg.Optimizer, Latency: cfg.Latency,
	}, clients, nil)
	trainFor := func(ci int) TrainFunc {
		return func(round int, weights []float64) ([]float64, int, error) {
			u := eng.TrainClient(round, ci, weights)
			return u.Weights, u.NumSamples, nil
		}
	}
	evalAcc := func(weights []float64) float64 {
		model := cfg.Model(rand.New(rand.NewSource(cfg.Seed)))
		model.SetWeightsVector(weights)
		acc, _ := model.Evaluate(test.InputTensor(), test.Y, cfg.EvalBatch)
		return acc
	}

	// Flat reference accuracy on the full federation.
	flatAgg, err := NewTieredAsyncAggregator("127.0.0.1:0", TieredAsyncConfig{
		GlobalCommits: commits, ClientsPerRound: cfg.ClientsPerRound,
		RoundTimeout: 20 * time.Second, InitialWeights: init, Seed: cfg.Seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer flatAgg.Close()
	var cfgs []WorkerConfig
	for ci := range clients {
		cfgs = append(cfgs, WorkerConfig{ClientID: ci, NumSamples: clients[ci].NumSamples(), Train: trainFor(ci)})
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
	flatAcc := evalAcc(flat.Weights)

	// Tree run with a mid-flight kill of the slowest tier's child.
	root, err := NewTieredAsyncAggregator("127.0.0.1:0", TieredAsyncConfig{
		GlobalCommits: commits, ClientsPerRound: cfg.ClientsPerRound,
		RoundTimeout: 20 * time.Second, InitialWeights: init, Seed: cfg.Seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer root.Close()
	children, _ := startChildren(t, root.Addr(), tiers)
	// A fast-tier leaf assassinates the slowest tier's child the moment its
	// own second round starts — deterministically mid-run, with most of the
	// commit budget still ahead — and holds its update back until the root
	// has seen the death: otherwise the run can reach its commit target
	// before the root's pump reads the killed child's EOF.
	var kill sync.Once
	doomed := children[len(children)-1]
	killAndAwaitDeath := func() {
		doomed.Close()
		for deadline := time.Now().Add(5 * time.Second); time.Now().Before(deadline); time.Sleep(time.Millisecond) {
			if snap := root.Metrics(); len(snap.Children) == len(tiers) && !snap.Children[len(tiers)-1].Alive {
				return
			}
		}
	}
	for ti, members := range tiers {
		for _, ci := range members {
			ci, fast := ci, ti == 0
			train := trainFor(ci)
			// The doomed tier's leaves die with their child; ignore their
			// (expected) connection errors.
			go RunWorker(children[ti].Addr(), WorkerConfig{ //nolint:errcheck
				ClientID: ci, NumSamples: clients[ci].NumSamples(),
				Train: func(round int, weights []float64) ([]float64, int, error) {
					if fast && round >= 1 {
						kill.Do(killAndAwaitDeath)
					}
					return train(round, weights)
				},
			})
		}
	}
	if err := root.WaitForChildren(len(tiers), 15*time.Second); err != nil {
		t.Fatal(err)
	}
	tree, err := root.RunTree()
	if err != nil {
		t.Fatal(err)
	}

	total := 0
	for _, c := range tree.Commits {
		total += c
	}
	if total != commits || len(tree.Log) != commits {
		t.Fatalf("degraded tree applied %d commits (log %d), want %d", total, len(tree.Log), commits)
	}
	snap := root.Metrics()
	if len(snap.Children) != len(tiers) {
		t.Fatalf("metrics report %d children, want %d", len(snap.Children), len(tiers))
	}
	if snap.Children[len(tiers)-1].Alive {
		t.Error("killed child still marked alive in metrics")
	}
	treeAcc := evalAcc(tree.Weights)
	if diff := math.Abs(treeAcc - flatAcc); diff > 0.2 {
		t.Errorf("degraded tree accuracy %.3f vs flat %.3f (diff %.3f > 0.2)", treeAcc, flatAcc, diff)
	}
}

// TestTreeCheckpointResume proves crash-safety composes with the topology:
// a tree run checkpoints at the root, and a brand-new root + children +
// leaves resume from the durable snapshot toward the absolute commit
// target, with version continuity across the restart.
func TestTreeCheckpointResume(t *testing.T) {
	path := filepath.Join(t.TempDir(), "tree.ckpt")
	tiers := [][]int{{0, 1}, {2, 3}}
	init := []float64{0, 0, 0, 0}
	leafCfgs := func(members []int) []WorkerConfig {
		var cfgs []WorkerConfig
		for _, ci := range members {
			cfgs = append(cfgs, WorkerConfig{ClientID: ci, NumSamples: 1, Train: echoTrain(0.5, 1, 0)})
		}
		return cfgs
	}
	runPhase := func(target int, resume bool) *TieredAsyncRunResult {
		t.Helper()
		root, err := NewTieredAsyncAggregator("127.0.0.1:0", TieredAsyncConfig{
			GlobalCommits: target, ClientsPerRound: 2,
			RoundTimeout: 10 * time.Second, InitialWeights: init, Seed: 11,
			CheckpointEvery: 2, CheckpointPath: path,
		})
		if err != nil {
			t.Fatal(err)
		}
		defer root.Close()
		children, waitChildren := startChildren(t, root.Addr(), tiers)
		var waits []func()
		for ti, members := range tiers {
			waits = append(waits, startWorkers(t, children[ti].Addr(), leafCfgs(members)))
		}
		if err := root.WaitForChildren(len(tiers), 10*time.Second); err != nil {
			t.Fatal(err)
		}
		if resume {
			c, err := flcore.LoadTieredCheckpointFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if err := root.ResumeTree(c); err != nil {
				t.Fatal(err)
			}
		}
		res, err := root.RunTree()
		if err != nil {
			t.Fatal(err)
		}
		waitChildren()
		for _, wait := range waits {
			wait()
		}
		return res
	}

	first := runPhase(4, false)
	if got := first.Log[len(first.Log)-1].Version; got != 4 {
		t.Fatalf("first phase ended at version %d, want 4", got)
	}
	second := runPhase(8, true)
	total := 0
	for _, c := range second.Commits {
		total += c
	}
	if total != 8 {
		t.Fatalf("resumed run's cumulative commits %v sum to %d, want the absolute target 8", second.Commits, total)
	}
	if len(second.Log) != 4 {
		t.Fatalf("resumed run applied %d fresh commits, want 4", len(second.Log))
	}
	if got := second.Log[0].Version; got != 5 {
		t.Fatalf("resumed run's first commit is version %d, want 5 (continuity)", got)
	}
	for i, w := range second.Weights {
		if math.IsNaN(w) || math.IsInf(w, 0) {
			t.Fatalf("resumed weight %d is %v", i, w)
		}
	}
}

// TestTreeResumeRosterChanged pins the fallback contract: resuming onto a
// tree whose leaf membership differs from the checkpoint fails with
// ErrRosterChanged, and ResumeModel still salvages the global weights.
func TestTreeResumeRosterChanged(t *testing.T) {
	path := filepath.Join(t.TempDir(), "tree.ckpt")
	init := []float64{0, 0}
	run := func(target int, tiers [][]int, prep func(*TieredAsyncAggregator)) *TieredAsyncRunResult {
		t.Helper()
		root, err := NewTieredAsyncAggregator("127.0.0.1:0", TieredAsyncConfig{
			GlobalCommits: target, ClientsPerRound: 1,
			RoundTimeout: 10 * time.Second, InitialWeights: init, Seed: 5,
			CheckpointEvery: 2, CheckpointPath: path,
		})
		if err != nil {
			t.Fatal(err)
		}
		defer root.Close()
		children, waitChildren := startChildren(t, root.Addr(), tiers)
		var waits []func()
		for ti, members := range tiers {
			var cfgs []WorkerConfig
			for _, ci := range members {
				cfgs = append(cfgs, WorkerConfig{ClientID: ci, NumSamples: 1, Train: echoTrain(1, 1, 0)})
			}
			waits = append(waits, startWorkers(t, children[ti].Addr(), cfgs))
		}
		if err := root.WaitForChildren(len(tiers), 10*time.Second); err != nil {
			t.Fatal(err)
		}
		if prep != nil {
			prep(root)
		}
		res, err := root.RunTree()
		if err != nil {
			t.Fatal(err)
		}
		waitChildren()
		for _, wait := range waits {
			wait()
		}
		return res
	}

	run(2, [][]int{{0}, {1}}, nil)
	// Same tier count, different leaf: the roster check must trip, and the
	// documented ResumeModel fallback must carry the weights forward.
	res := run(4, [][]int{{0}, {7}}, func(root *TieredAsyncAggregator) {
		c, err := flcore.LoadTieredCheckpointFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if err := root.ResumeTree(c); !errors.Is(err, ErrRosterChanged) {
			t.Fatalf("ResumeTree on a changed roster returned %v, want ErrRosterChanged", err)
		}
		if err := root.ResumeModel(c); err != nil {
			t.Fatal(err)
		}
	})
	if len(res.Log) != 2 {
		t.Fatalf("fallback run applied %d fresh commits, want 2", len(res.Log))
	}
	if got := res.Log[0].Version; got != 3 {
		t.Fatalf("fallback run's first commit is version %d, want 3", got)
	}
}

// TestTreeUplinkAndChildMetrics checks the edge-compression accounting: a
// tree whose leaves upload top-k payloads must surface the children's
// reported uplink traffic both in the run result and as per-child metrics
// rows (tier, address, last-partial age).
func TestTreeUplinkAndChildMetrics(t *testing.T) {
	tiers := [][]int{{0, 1}, {2, 3}}
	init := make([]float64, 64)
	root, err := NewTieredAsyncAggregator("127.0.0.1:0", TieredAsyncConfig{
		GlobalCommits: 4, ClientsPerRound: 2,
		RoundTimeout: 10 * time.Second, InitialWeights: init, Seed: 9,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer root.Close()
	scriptCommitOrder(root, []int{0, 1, 0, 1})
	children, waitChildren := startChildren(t, root.Addr(), tiers)
	var waits []func()
	for ti, members := range tiers {
		var cfgs []WorkerConfig
		for _, ci := range members {
			cfgs = append(cfgs, WorkerConfig{
				ClientID: ci, NumSamples: 1, Train: echoTrain(0.25, 1, 0),
				Codec: compress.NewTopK(0.5),
			})
		}
		waits = append(waits, startWorkers(t, children[ti].Addr(), cfgs))
	}
	if err := root.WaitForChildren(len(tiers), 10*time.Second); err != nil {
		t.Fatal(err)
	}
	res, err := root.RunTree()
	if err != nil {
		t.Fatal(err)
	}
	waitChildren()
	for _, wait := range waits {
		wait()
	}

	if res.UplinkBytes <= 0 {
		t.Fatalf("tree run reported %d uplink bytes", res.UplinkBytes)
	}
	dense := int64(compress.DenseBytes(len(init))) * 2 * 4 // 2 clients × 4 commits
	if res.UplinkBytes >= dense {
		t.Errorf("top-k uplink %d not below the dense baseline %d", res.UplinkBytes, dense)
	}
	snap := root.Metrics()
	if len(snap.Children) != len(tiers) {
		t.Fatalf("metrics report %d children, want %d", len(snap.Children), len(tiers))
	}
	var childUplink int64
	for ti, row := range snap.Children {
		if row.Tier != ti {
			t.Errorf("child row %d reports tier %d", ti, row.Tier)
		}
		if row.Addr == "" {
			t.Errorf("child row %d has no address", ti)
		}
		if row.UplinkBytes <= 0 {
			t.Errorf("child row %d reports %d uplink bytes", ti, row.UplinkBytes)
		}
		if row.LastPartialAgeSeconds < 0 {
			t.Errorf("child row %d never applied a partial", ti)
		}
		childUplink += row.UplinkBytes
	}
	if childUplink != res.UplinkBytes {
		t.Errorf("per-child uplink rows sum to %d, run reported %d", childUplink, res.UplinkBytes)
	}
}

// TestTreeRejectsMalformedTopology pins the registration validation: plain
// workers cannot register directly with a tree root, and child IDs must be
// the contiguous tier indexes.
func TestTreeRejectsMalformedTopology(t *testing.T) {
	t.Run("plain worker", func(t *testing.T) {
		root, err := NewTieredAsyncAggregator("127.0.0.1:0", TieredAsyncConfig{
			GlobalCommits: 1, ClientsPerRound: 1,
			InitialWeights: []float64{0}, Seed: 1,
		})
		if err != nil {
			t.Fatal(err)
		}
		defer root.Close()
		go RunWorker(root.Addr(), WorkerConfig{ClientID: 0, NumSamples: 1, Train: echoTrain(1, 1, 0)}) //nolint:errcheck
		err = root.WaitForChildren(1, 5*time.Second)
		if err == nil || !strings.Contains(err.Error(), "plain worker") {
			t.Fatalf("WaitForChildren accepted a plain worker (err %v)", err)
		}
	})
	t.Run("non-contiguous child IDs", func(t *testing.T) {
		root, err := NewTieredAsyncAggregator("127.0.0.1:0", TieredAsyncConfig{
			GlobalCommits: 1, ClientsPerRound: 1,
			InitialWeights: []float64{0}, Seed: 1,
		})
		if err != nil {
			t.Fatal(err)
		}
		defer root.Close()
		ch, err := NewChild(ChildConfig{ID: 1, RootAddr: root.Addr(), Workers: 1, RoundTimeout: 5 * time.Second})
		if err != nil {
			t.Fatal(err)
		}
		defer ch.Close()
		go ch.Run()                                                                                  //nolint:errcheck
		go RunWorker(ch.Addr(), WorkerConfig{ClientID: 0, NumSamples: 1, Train: echoTrain(1, 1, 0)}) //nolint:errcheck
		err = root.WaitForChildren(1, 5*time.Second)
		if err == nil || !strings.Contains(err.Error(), "contiguous") {
			t.Fatalf("WaitForChildren accepted tier ID 1 as the only child (err %v)", err)
		}
	})
}

// TestTreeResumeValidation is the tree's row set of the one checkpoint
// validation: ResumeTree must refuse every malformed checkpoint the flat
// Resume and the simulated Restore refuse — including the negative
// counters no path used to check — before touching the root, and accept
// the well-formed one afterwards.
func TestTreeResumeValidation(t *testing.T) {
	tiers := [][]int{{0}, {1}}
	root, err := NewTieredAsyncAggregator("127.0.0.1:0", TieredAsyncConfig{
		GlobalCommits: 10, ClientsPerRound: 1,
		RoundTimeout: 5 * time.Second, InitialWeights: []float64{0}, Seed: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer root.Close()
	children, _ := startChildren(t, root.Addr(), tiers)
	for ti, members := range tiers {
		for _, ci := range members {
			go RunWorker(children[ti].Addr(), WorkerConfig{ClientID: ci, NumSamples: 1, Train: echoTrain(1, 1, 0)}) //nolint:errcheck // ends with its child
		}
	}
	if err := root.WaitForChildren(len(tiers), 10*time.Second); err != nil {
		t.Fatal(err)
	}
	good := func() *flcore.TieredCheckpoint {
		return &flcore.TieredCheckpoint{
			Format: flcore.TieredCheckpointFormat, Seed: 5, Version: 4,
			Weights: []float64{0.5}, Rounds: []int{2, 2}, Commits: []int{2, 2},
			Tiers: [][]int{{0}, {1}},
		}
	}
	for name, mutate := range map[string]func(c *flcore.TieredCheckpoint){
		"no tiers":            func(c *flcore.TieredCheckpoint) { c.Tiers = nil },
		"cursor mismatch":     func(c *flcore.TieredCheckpoint) { c.Commits = []int{4} },
		"unknown format":      func(c *flcore.TieredCheckpoint) { c.Format = flcore.TieredCheckpointFormat + 1 },
		"seed mismatch":       func(c *flcore.TieredCheckpoint) { c.Seed = 6 },
		"weight length":       func(c *flcore.TieredCheckpoint) { c.Weights = []float64{1, 2} },
		"non-finite weight":   func(c *flcore.TieredCheckpoint) { c.Weights = []float64{math.Inf(1)} },
		"negative version":    func(c *flcore.TieredCheckpoint) { c.Version = -1 },
		"nothing left to run": func(c *flcore.TieredCheckpoint) { c.Version = 10 },
		"manager state":       func(c *flcore.TieredCheckpoint) { c.ManagerState = []byte{1} },
		"duplicate leaf":      func(c *flcore.TieredCheckpoint) { c.Tiers = [][]int{{0}, {0}} },
		"negative round":      func(c *flcore.TieredCheckpoint) { c.Rounds[0] = -1 },
		"negative commits":    func(c *flcore.TieredCheckpoint) { c.Commits[1] = -1 },
		"negative uplink":     func(c *flcore.TieredCheckpoint) { c.UplinkBytes = -1 },
		"negative downlink":   func(c *flcore.TieredCheckpoint) { c.DownlinkBytes = -1 },
		"negative retiers":    func(c *flcore.TieredCheckpoint) { c.Retiers = -1 },
		"negative migrations": func(c *flcore.TieredCheckpoint) { c.Migrations = -1 },
	} {
		c := good()
		mutate(c)
		if err := root.ResumeTree(c); err == nil {
			t.Errorf("%s accepted", name)
		}
	}
	if err := root.ResumeTree(good()); err != nil {
		t.Errorf("valid checkpoint rejected after failed attempts: %v", err)
	}
}
