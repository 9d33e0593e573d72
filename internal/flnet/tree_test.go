package flnet

import (
	"errors"
	"math"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/compress"
	"repro/internal/flcore"
)

// startChildren builds one Child per tier against the root, its leaf
// broadcasts under dl, starts their Run loops, and returns the children plus
// a wait function that checks every Run returned nil.
func startChildren(t *testing.T, rootAddr string, tiers [][]int, dl *compress.Downlink) ([]*Child, func()) {
	t.Helper()
	children := make([]*Child, len(tiers))
	errs := make([]error, len(tiers))
	var wg sync.WaitGroup
	for ti, members := range tiers {
		ch, err := NewChild(ChildConfig{
			ID: ti, RootAddr: rootAddr, Workers: len(members),
			FanInConfig: FanInConfig{RoundTimeout: 20 * time.Second}, Downlink: dl,
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
	worker := workerEngine(cfg, clients)

	// Flat reference accuracy on the full federation.
	flatAgg, err := NewTieredAsyncAggregator("127.0.0.1:0", rootConfig(cfg, commits))
	if err != nil {
		t.Fatal(err)
	}
	defer flatAgg.Close()
	var cfgs []WorkerConfig
	for ci := range clients {
		cfgs = append(cfgs, worker(ci))
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
	flatAcc := accuracy(cfg, test, flat.Weights)

	// Tree run with a mid-flight kill of the slowest tier's child.
	root, err := NewTieredAsyncAggregator("127.0.0.1:0", rootConfig(cfg, commits))
	if err != nil {
		t.Fatal(err)
	}
	defer root.Close()
	children, _ := startChildren(t, root.Addr(), tiers, nil)
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
			wc, fast := worker(ci), ti == 0
			train := wc.Train
			wc.Train = func(round int, weights []float64) ([]float64, int, error) {
				if fast && round >= 1 {
					kill.Do(killAndAwaitDeath)
				}
				return train(round, weights)
			}
			// The doomed tier's leaves die with their child; ignore their
			// (expected) connection errors.
			go RunWorker(children[ti].Addr(), wc) //nolint:errcheck
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
	treeAcc := accuracy(cfg, test, tree.Weights)
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
		cfg := tieredConfig(target, 2, 11, 10*time.Second, init)
		cfg.CheckpointEvery, cfg.CheckpointPath = 2, path
		root, err := NewTieredAsyncAggregator("127.0.0.1:0", cfg)
		if err != nil {
			t.Fatal(err)
		}
		defer root.Close()
		children, waitChildren := startChildren(t, root.Addr(), tiers, nil)
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
		cfg := tieredConfig(target, 1, 5, 10*time.Second, init)
		cfg.CheckpointEvery, cfg.CheckpointPath = 2, path
		root, err := NewTieredAsyncAggregator("127.0.0.1:0", cfg)
		if err != nil {
			t.Fatal(err)
		}
		defer root.Close()
		children, waitChildren := startChildren(t, root.Addr(), tiers, nil)
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
	root, err := NewTieredAsyncAggregator("127.0.0.1:0", tieredConfig(4, 2, 9, 10*time.Second, init))
	if err != nil {
		t.Fatal(err)
	}
	defer root.Close()
	scriptCommitOrder(root, []int{0, 1, 0, 1})
	children, waitChildren := startChildren(t, root.Addr(), tiers, nil)
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
		root, err := NewTieredAsyncAggregator("127.0.0.1:0", tieredConfig(1, 1, 1, 0, []float64{0}))
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
		root, err := NewTieredAsyncAggregator("127.0.0.1:0", tieredConfig(1, 1, 1, 0, []float64{0}))
		if err != nil {
			t.Fatal(err)
		}
		defer root.Close()
		ch, err := NewChild(ChildConfig{ID: 1, RootAddr: root.Addr(), Workers: 1, FanInConfig: FanInConfig{RoundTimeout: 5 * time.Second}})
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
	root, err := NewTieredAsyncAggregator("127.0.0.1:0", tieredConfig(10, 1, 5, 5*time.Second, []float64{0}))
	if err != nil {
		t.Fatal(err)
	}
	defer root.Close()
	children, _ := startChildren(t, root.Addr(), tiers, nil)
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
