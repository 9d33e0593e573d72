package flnet

import (
	"math"
	"sync"
	"testing"
	"time"

	"repro/internal/faultnet"
)

// TestWorkerReconnectResumesRun is the basic self-healing path: a worker
// whose connection is severed mid-run by a scripted faultnet cut must
// re-enter via the backoff loop, be re-announced its tier, and the run
// must still reach the full commit target. The reconnect is observable in
// /metrics while the run is in flight: the reconnect counter ticks, the
// worker's row returns to "connected", and its tier's live-member
// fraction recovers to 1.
func TestWorkerReconnectResumesRun(t *testing.T) {
	rootCfg := tieredConfig(14, 2, 3, 10*time.Second, []float64{0, 0})
	rootCfg.MaxRetries, rootCfg.RejoinWait = 2, 5*time.Second
	agg, err := NewTieredAsyncAggregator("127.0.0.1:0", rootCfg)
	if err != nil {
		t.Fatal(err)
	}
	defer agg.Close()
	// Worker 0's first connection dies after 2000 bytes; its reconnect
	// dial establishes connection index 1, which no rule touches.
	ft := faultnet.New(faultnet.Schedule{Rules: []faultnet.Rule{{Conn: 0, CutAfterBytes: 2000}}})
	tiers := [][]int{{0, 1}, {2, 3}}
	for id := 0; id < 4; id++ {
		cfg := WorkerConfig{
			ClientID: id, NumSamples: 1, Train: echoTrain(1, 1, 5*time.Millisecond),
			Reconnect: true, MaxReconnects: 20,
			ReconnectBase: 10 * time.Millisecond, ReconnectMax: 200 * time.Millisecond,
			RPCTimeout: 20 * time.Second,
		}
		if id == 0 {
			cfg.Dial = ft.Dial
		}
		go RunWorker(agg.Addr(), cfg) //nolint:errcheck // post-run redials may fail
	}
	if err := agg.WaitForWorkers(4, 10*time.Second); err != nil {
		t.Fatal(err)
	}

	type runOut struct {
		res *TieredAsyncRunResult
		err error
	}
	done := make(chan runOut, 1)
	go func() {
		res, err := agg.Run(tiers)
		done <- runOut{res, err}
	}()

	// Catch the healed state live: worker 0 cut, reconnected, connected
	// again, with its tier back at full strength.
	var healed *MetricsSnapshot
	deadline := time.Now().Add(15 * time.Second)
poll:
	for time.Now().Before(deadline) {
		snap := agg.Metrics()
		if snap.Reconnects >= 1 {
			for _, w := range snap.Workers {
				if w.ID == 0 && w.State == WorkerConnected && w.Reconnects >= 1 {
					healed = &snap
					break poll
				}
			}
		}
		select {
		case out := <-done:
			done <- out
			break poll
		case <-time.After(10 * time.Millisecond):
		}
	}
	out := <-done
	if out.err != nil {
		t.Fatal(out.err)
	}
	if ft.Cuts() < 1 {
		t.Fatalf("faultnet cut %d connections, want the scripted cut", ft.Cuts())
	}
	if healed == nil {
		t.Fatal("run finished without /metrics ever showing worker 0 reconnected")
	}
	if len(healed.Workers) != 4 {
		t.Fatalf("metrics carry %d worker rows, want 4: %+v", len(healed.Workers), healed.Workers)
	}
	for _, w := range healed.Workers {
		if w.ID == 0 && w.Tier != 0 {
			t.Errorf("worker 0 row holds tier %d after rejoin, want 0", w.Tier)
		}
	}
	for _, tm := range healed.Tiers {
		if tm.Tier == 0 && tm.LiveMemberFraction != 1 {
			t.Errorf("tier 0 live-member fraction %.2f after rejoin, want 1", tm.LiveMemberFraction)
		}
	}
	total := 0
	for _, c := range out.res.Commits {
		total += c
	}
	if total != 14 || len(out.res.Log) != 14 {
		t.Fatalf("commits %v sum to %d (log %d), want 14", out.res.Commits, total, len(out.res.Log))
	}
	// Idempotent tokens: a commit can never count more members than the
	// cohort it dispatched, no matter how many redispatches it took.
	for i, rec := range out.res.Log {
		if rec.Clients < 1 || rec.Clients > 2 {
			t.Fatalf("commit %d counted %d clients, cohort size is 2: %+v", i, rec.Clients, rec)
		}
	}
}

// TestWorkerReconnectGivesUp bounds the backoff loop: with the aggregator
// gone for good, a reconnecting worker must fail after its configured
// attempt budget instead of spinning forever.
func TestWorkerReconnectGivesUp(t *testing.T) {
	agg, err := NewAggregator("127.0.0.1:0", AggregatorConfig{
		Rounds: 1, ClientsPerRound: 1, InitialWeights: []float64{0}, Seed: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	addr := agg.Addr()
	agg.Close()
	errCh := make(chan error, 1)
	go func() {
		errCh <- RunWorker(addr, WorkerConfig{
			ClientID: 0, NumSamples: 1, Train: echoTrain(1, 1, 0),
			DialTimeout: 200 * time.Millisecond,
			Reconnect:   true, MaxReconnects: 3,
			ReconnectBase: 5 * time.Millisecond, ReconnectMax: 20 * time.Millisecond,
		})
	}()
	select {
	case err := <-errCh:
		if err == nil {
			t.Fatal("worker reported success against a dead aggregator")
		}
	case <-time.After(30 * time.Second):
		t.Fatal("reconnect loop did not give up")
	}
}

// TestChaosReconnectAccuracyBand is the deterministic chaos suite of the
// robustness PR: the 9-client training federation runs under a scripted
// faultnet schedule — a seeded flap storm cutting a fraction of the
// initial worker connections mid-round plus a transient dial-refusal
// window on the reconnect path — and must finish every commit with a
// final model inside the fault-free run's accuracy band. The seq-routed
// request tokens make double-counting structurally impossible; the
// per-commit client counts pin that.
func TestChaosReconnectAccuracyBand(t *testing.T) {
	commits := 18
	if testing.Short() {
		commits = 9
	}
	clients, tiers, test, cfg := netFixture(t, 0)
	worker := workerEngine(cfg, clients)
	root := rootConfig(cfg, commits)
	root.MaxRetries, root.RejoinWait, root.SendTimeout = 2, 5*time.Second, 20*time.Second
	// Pacing recreates the tier latency spread in real time (as in
	// TestTieredAsyncNetTracksSimulation) and stretches the run far past
	// the reconnect backoff horizon, so cut workers rejoin mid-run.
	pacing := []time.Duration{5 * time.Millisecond, 9 * time.Millisecond, 25 * time.Millisecond}
	runFleet := func(ft *faultnet.Transport) *TieredAsyncRunResult {
		t.Helper()
		agg, err := NewTieredAsyncAggregator("127.0.0.1:0", root)
		if err != nil {
			t.Fatal(err)
		}
		defer agg.Close()
		for ti, members := range tiers {
			for _, ci := range members {
				wc := paced(worker(ci), pacing[ti])
				wc.Reconnect, wc.MaxReconnects = true, 50
				wc.ReconnectBase, wc.ReconnectMax = 5*time.Millisecond, 50*time.Millisecond
				if ft != nil {
					wc.Dial = ft.Dial
				}
				go RunWorker(agg.Addr(), wc) //nolint:errcheck // post-run redials may fail
			}
		}
		if err := agg.WaitForWorkers(len(clients), 15*time.Second); err != nil {
			t.Fatal(err)
		}
		res, err := agg.Run(tiers)
		if err != nil {
			t.Fatal(err)
		}
		snap := agg.Metrics()
		if ft == nil {
			if snap.Reconnects != 0 {
				t.Errorf("fault-free run recorded %d reconnects", snap.Reconnects)
			}
		} else if snap.Reconnects < 1 {
			t.Errorf("chaos run recorded no reconnects (cuts=%d refused=%d)", ft.Cuts(), ft.Refused())
		}
		return res
	}
	check := func(res *TieredAsyncRunResult) float64 {
		t.Helper()
		total := 0
		for _, c := range res.Commits {
			total += c
		}
		if total != commits || len(res.Log) != commits {
			t.Fatalf("commits %v sum to %d (log %d), want %d", res.Commits, total, len(res.Log), commits)
		}
		for i, rec := range res.Log {
			if rec.Clients < 1 || rec.Clients > cfg.ClientsPerRound {
				t.Fatalf("commit %d counted %d clients, cohort size is %d", i, rec.Clients, cfg.ClientsPerRound)
			}
		}
		return accuracy(cfg, test, res.Weights)
	}

	cleanAcc := check(runFleet(nil))

	// The scripted chaos: a fixed-seed flap storm over the nine initial
	// connections (~1/3 of the fleet, cut mid-round once ~10 KB of train
	// traffic crossed — a couple of rounds at this fixture's model size)
	// and a transient root partition refusing the first reconnect dials.
	rules := faultnet.FlapRules(42, len(clients), 0.34, 10<<10)
	if len(rules) == 0 {
		t.Fatal("flap schedule selected no connections; pick a different seed")
	}
	ft := faultnet.New(faultnet.Schedule{
		Seed: 42, Rules: rules,
		RefuseFrom: len(clients), RefuseUntil: len(clients) + 2,
	})
	chaosAcc := check(runFleet(ft))
	if ft.Cuts() < 1 {
		t.Fatalf("chaos schedule cut %d connections, want >= 1", ft.Cuts())
	}
	t.Logf("accuracy clean=%.4f chaos=%.4f (cuts=%d refused=%d)", cleanAcc, chaosAcc, ft.Cuts(), ft.Refused())
	if diff := math.Abs(chaosAcc - cleanAcc); diff > 0.2 {
		t.Fatalf("chaos accuracy %.4f diverges from fault-free %.4f by %.4f", chaosAcc, cleanAcc, diff)
	}
}

// TestTreeChildRevival is the tree half of the self-healing contract:
// killing a child aggregator mid-run degrades its tier (as in
// TestTreeChildDeathDegrades), but respawning a child on the same address
// with the same leaf membership must revive it — the leaves reconnect to
// the new child through their backoff loops, the child re-registers at
// the root, the root validates it against the pinned topology, and the
// tier resumes committing with /metrics flipped back to alive.
func TestTreeChildRevival(t *testing.T) {
	commits := 40
	if testing.Short() {
		commits = 20
	}
	// Per-tier pacing stretches the run well past the revival horizon
	// (death detection + leaf reconnects + child respawn, ~100ms).
	pacing := []time.Duration{10 * time.Millisecond, 20 * time.Millisecond, 40 * time.Millisecond}
	clients, tiers, test, cfg := netFixture(t, 0)
	worker := workerEngine(cfg, clients)

	rootCfg := rootConfig(cfg, commits)
	rootCfg.RejoinWait = 10 * time.Second
	root, err := NewTieredAsyncAggregator("127.0.0.1:0", rootCfg)
	if err != nil {
		t.Fatal(err)
	}
	defer root.Close()
	children, _ := startChildren(t, root.Addr(), tiers, nil)

	// A fast-tier leaf assassinates the slowest tier's child on its second
	// round; the doomed tier's leaves then hammer the child's old address
	// through their backoff loops until the respawn starts listening.
	var kill sync.Once
	doomed := children[len(children)-1]
	doomedAddr := doomed.Addr()
	for ti, members := range tiers {
		for _, ci := range members {
			wc, fast := paced(worker(ci), pacing[ti]), ti == 0
			wc.Reconnect, wc.MaxReconnects = true, 100
			wc.ReconnectBase, wc.ReconnectMax = 5*time.Millisecond, 100*time.Millisecond
			train := wc.Train
			wc.Train = func(round int, weights []float64) ([]float64, int, error) {
				if fast && round >= 1 {
					kill.Do(doomed.Close)
				}
				return train(round, weights)
			}
			go RunWorker(children[ti].Addr(), wc) //nolint:errcheck // doomed-tier leaves see expected errors
		}
	}
	if err := root.WaitForChildren(len(tiers), 15*time.Second); err != nil {
		t.Fatal(err)
	}

	type runOut struct {
		res *TieredAsyncRunResult
		err error
	}
	done := make(chan runOut, 1)
	go func() {
		res, err := root.RunTree()
		done <- runOut{res, err}
	}()

	// Wait for the death to register, then respawn the child on the same
	// address with the same leaf quota.
	last := len(tiers) - 1
	waitFor := func(cond func(MetricsSnapshot) bool, what string) {
		t.Helper()
		deadline := time.Now().Add(30 * time.Second)
		for time.Now().Before(deadline) {
			if cond(root.Metrics()) {
				return
			}
			select {
			case out := <-done:
				done <- out
				t.Fatalf("run finished before %s (err %v)", what, out.err)
			case <-time.After(10 * time.Millisecond):
			}
		}
		t.Fatalf("timed out waiting for %s", what)
	}
	waitFor(func(s MetricsSnapshot) bool {
		return len(s.Children) == len(tiers) && !s.Children[last].Alive
	}, "the killed child to be marked dead")

	respawn, err := NewChild(ChildConfig{
		ID: last, Addr: doomedAddr, RootAddr: root.Addr(),
		Workers: len(tiers[last]), FanInConfig: FanInConfig{RoundTimeout: 20 * time.Second},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer respawn.Close()
	respawnErr := make(chan error, 1)
	go func() { respawnErr <- respawn.Run() }()

	waitFor(func(s MetricsSnapshot) bool {
		return s.ChildRejoins >= 1 && s.Children[last].Alive
	}, "the respawned child to revive its tier")

	out := <-done
	if out.err != nil {
		t.Fatal(out.err)
	}
	if err := <-respawnErr; err != nil {
		t.Fatalf("respawned child: %v", err)
	}
	total := 0
	for _, c := range out.res.Commits {
		total += c
	}
	if total != commits || len(out.res.Log) != commits {
		t.Fatalf("commits %v sum to %d (log %d), want %d", out.res.Commits, total, len(out.res.Log), commits)
	}
	snap := root.Metrics()
	if snap.ChildRejoins < 1 {
		t.Errorf("metrics report %d child rejoins, want >= 1", snap.ChildRejoins)
	}
	if !snap.Children[last].Alive {
		t.Error("revived child not marked alive in metrics")
	}
	for _, tm := range snap.Tiers {
		if tm.Tier == last && tm.LiveMemberFraction != 1 {
			t.Errorf("revived tier live-member fraction %.2f, want 1", tm.LiveMemberFraction)
		}
	}

	// The revived model must stay inside the flat run's accuracy band —
	// the same band TestTreeChildDeathDegrades holds the degraded run to.
	flatAgg, err := NewTieredAsyncAggregator("127.0.0.1:0", rootConfig(cfg, commits))
	if err != nil {
		t.Fatal(err)
	}
	defer flatAgg.Close()
	var cfgs []WorkerConfig
	for ti, members := range tiers {
		for _, ci := range members {
			cfgs = append(cfgs, paced(worker(ci), pacing[ti]))
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
	treeAcc, flatAcc := accuracy(cfg, test, out.res.Weights), accuracy(cfg, test, flat.Weights)
	t.Logf("accuracy revived-tree=%.4f flat=%.4f", treeAcc, flatAcc)
	if diff := math.Abs(treeAcc - flatAcc); diff > 0.2 {
		t.Errorf("revived tree accuracy %.4f vs flat %.4f (diff %.4f > 0.2)", treeAcc, flatAcc, diff)
	}
}

// BenchmarkReconnectStorm measures the cost of absorbing a full-fleet
// reconnect storm: every worker's initial connection is cut by the
// scripted schedule, the whole fleet re-enters through backoff, and the
// run still drives to its commit target.
func BenchmarkReconnectStorm(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cfg := tieredConfig(6, 2, 17, 10*time.Second, []float64{0, 0})
		cfg.MaxRetries, cfg.RejoinWait = 2, 5*time.Second
		agg, err := NewTieredAsyncAggregator("127.0.0.1:0", cfg)
		if err != nil {
			b.Fatal(err)
		}
		ft := faultnet.New(faultnet.Schedule{Rules: faultnet.FlapRules(17, 6, 1, 1500)})
		for id := 0; id < 6; id++ {
			go RunWorker(agg.Addr(), WorkerConfig{ //nolint:errcheck // post-run redials may fail
				ClientID: id, NumSamples: 1, Train: echoTrain(1, 1, time.Millisecond),
				Dial: ft.Dial, Reconnect: true, MaxReconnects: 50,
				ReconnectBase: 5 * time.Millisecond, ReconnectMax: 100 * time.Millisecond,
			})
		}
		if err := agg.WaitForWorkers(6, 10*time.Second); err != nil {
			b.Fatal(err)
		}
		if _, err := agg.Run([][]int{{0, 1, 2}, {3, 4, 5}}); err != nil {
			b.Fatal(err)
		}
		if ft.Cuts() < 6 {
			b.Fatalf("storm cut %d of 6 connections", ft.Cuts())
		}
		agg.Close()
	}
}
