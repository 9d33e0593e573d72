package flnet

import (
	"encoding/json"
	"errors"
	"math"
	"math/rand"
	"net/http"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/flcore"
	"repro/internal/tiering"
)

// TestTieredAsyncNetChaosKillResume is the crash-safety acceptance test:
// a tiered-async job snapshotting every few commits is killed mid-run
// (Close from inside the checkpoint hook, exactly the torn-process
// window), then a fresh aggregator loads the latest durable snapshot,
// the workers re-register, and Resume + Run(nil) continues the SAME job
// to the same absolute commit target. The resumed model must land in
// the same accuracy band as an uninterrupted run.
func TestTieredAsyncNetChaosKillResume(t *testing.T) {
	const target = 48
	clients, tiers, test, cfg := netFixture(t, 60)
	init := cfg.Model(rand.New(rand.NewSource(cfg.Seed))).WeightsVector()
	eng := flcore.NewEngine(flcore.Config{
		Rounds: 1, ClientsPerRound: 1, LocalEpochs: cfg.LocalEpochs,
		BatchSize: cfg.BatchSize, Seed: cfg.Seed,
		Model: cfg.Model, Optimizer: cfg.Optimizer, Latency: cfg.Latency,
	}, clients, nil)
	pacing := []time.Duration{5 * time.Millisecond, 9 * time.Millisecond, 25 * time.Millisecond}
	launch := func(addr string) {
		for ti, members := range tiers {
			for _, ci := range members {
				go RunWorker(addr, WorkerConfig{ //nolint:errcheck
					ClientID: ci, NumSamples: clients[ci].NumSamples(),
					Train: func(round int, weights []float64) ([]float64, int, error) {
						time.Sleep(pacing[ti])
						u := eng.TrainClient(round, ci, weights)
						return u.Weights, u.NumSamples, nil
					},
				})
			}
		}
	}
	accuracy := func(weights []float64) float64 {
		model := cfg.Model(rand.New(rand.NewSource(cfg.Seed)))
		model.SetWeightsVector(weights)
		acc, _ := model.Evaluate(test.InputTensor(), test.Y, cfg.EvalBatch)
		return acc
	}
	base := TieredAsyncConfig{
		GlobalCommits: target, ClientsPerRound: cfg.ClientsPerRound,
		RoundTimeout: 20 * time.Second, InitialWeights: init, Seed: cfg.Seed,
	}

	// Uninterrupted reference run.
	ref, err := NewTieredAsyncAggregator("127.0.0.1:0", base)
	if err != nil {
		t.Fatal(err)
	}
	defer ref.Close()
	launch(ref.Addr())
	if err := ref.WaitForWorkers(len(clients), 10*time.Second); err != nil {
		t.Fatal(err)
	}
	refRes, err := ref.Run(tiers)
	if err != nil {
		t.Fatal(err)
	}
	refAcc := accuracy(refRes.Weights)

	// Chaos run: checkpoint every 5 commits, kill the aggregator from
	// inside the hook once past the halfway snapshot.
	ckptPath := filepath.Join(t.TempDir(), "run.ckpt")
	ckptCfg := base
	ckptCfg.CheckpointEvery = 5
	ckptCfg.CheckpointPath = ckptPath
	crashCfg := ckptCfg
	var crashAgg *TieredAsyncAggregator
	var crashOnce sync.Once
	crashCfg.OnCheckpoint = func(c *flcore.TieredCheckpoint) {
		if c.Version < target/2 {
			return
		}
		crashOnce.Do(func() { go crashAgg.Close() })
	}
	crashAgg, err = NewTieredAsyncAggregator("127.0.0.1:0", crashCfg)
	if err != nil {
		t.Fatal(err)
	}
	launch(crashAgg.Addr())
	if err := crashAgg.WaitForWorkers(len(clients), 10*time.Second); err != nil {
		t.Fatal(err)
	}
	if _, err := crashAgg.Run(tiers); err == nil {
		t.Fatal("killed run reported success")
	}
	crashAgg.Close()

	// Restart: load the newest durable snapshot and continue toward the
	// same absolute target over re-registered workers.
	ckpt, err := flcore.LoadTieredCheckpointFile(ckptPath)
	if err != nil {
		t.Fatal(err)
	}
	if ckpt.Version < target/2 || ckpt.Version >= target {
		t.Fatalf("snapshot at version %d, want in [%d, %d)", ckpt.Version, target/2, target)
	}
	res, err := NewTieredAsyncAggregator("127.0.0.1:0", ckptCfg)
	if err != nil {
		t.Fatal(err)
	}
	defer res.Close()
	launch(res.Addr())
	if err := res.WaitForWorkers(len(clients), 10*time.Second); err != nil {
		t.Fatal(err)
	}
	if err := res.Resume(ckpt); err != nil {
		t.Fatal(err)
	}
	rres, err := res.Run(nil) // nil: continue on the checkpointed tiers
	if err != nil {
		t.Fatal(err)
	}

	total := 0
	for _, c := range rres.Commits {
		total += c
	}
	if total != target {
		t.Fatalf("cumulative commits %v sum to %d, want %d", rres.Commits, total, target)
	}
	if want := target - ckpt.Version; len(rres.Log) != want {
		t.Fatalf("resumed run applied %d commits, want %d", len(rres.Log), want)
	}
	if rres.Log[0].Version != ckpt.Version+1 {
		t.Fatalf("resumed commit log starts at version %d, want %d", rres.Log[0].Version, ckpt.Version+1)
	}
	if rres.UplinkBytes <= ckpt.UplinkBytes {
		t.Fatalf("cumulative uplink %d did not grow past checkpointed %d", rres.UplinkBytes, ckpt.UplinkBytes)
	}
	resAcc := accuracy(rres.Weights)
	t.Logf("crash at version %d; accuracy uninterrupted=%.4f resumed=%.4f", ckpt.Version, refAcc, resAcc)
	if resAcc < 0.4 {
		t.Fatalf("resumed final accuracy %.4f barely above chance", resAcc)
	}
	if diff := math.Abs(resAcc - refAcc); diff > 0.2 {
		t.Fatalf("resumed accuracy %.4f diverges from uninterrupted %.4f by %.4f", resAcc, refAcc, diff)
	}
}

// TestTieredAsyncNetResumeRosterChanged covers the degraded-resume path:
// when a checkpointed worker does not come back, Resume refuses with
// ErrRosterChanged and ResumeModel restores just the model and counters,
// letting the caller run fresh tiers over the surviving roster toward
// the same absolute commit target.
func TestTieredAsyncNetResumeRosterChanged(t *testing.T) {
	const target = 12
	base := TieredAsyncConfig{
		GlobalCommits: target, ClientsPerRound: 2,
		RoundTimeout: 2 * time.Second, InitialWeights: []float64{0, 0}, Seed: 11,
	}
	first := base
	var raw []byte
	var once sync.Once
	first.CheckpointEvery = 3
	first.OnCheckpoint = func(c *flcore.TieredCheckpoint) {
		if c.Version != target/2 {
			return
		}
		once.Do(func() {
			var err error
			if raw, err = c.Encode(); err != nil {
				t.Errorf("encoding checkpoint: %v", err)
			}
		})
	}
	agg, err := NewTieredAsyncAggregator("127.0.0.1:0", first)
	if err != nil {
		t.Fatal(err)
	}
	defer agg.Close()
	for id := 0; id < 4; id++ {
		go RunWorker(agg.Addr(), WorkerConfig{ClientID: id, NumSamples: 1, Train: echoTrain(1, 1, 0)}) //nolint:errcheck
	}
	if err := agg.WaitForWorkers(4, 5*time.Second); err != nil {
		t.Fatal(err)
	}
	if _, err := agg.Run([][]int{{0, 1}, {2, 3}}); err != nil {
		t.Fatal(err)
	}
	if raw == nil {
		t.Fatalf("no checkpoint observed at version %d", target/2)
	}
	ckpt, err := flcore.DecodeTieredCheckpoint(raw)
	if err != nil {
		t.Fatal(err)
	}

	// Worker 3 never comes back; only 0, 1, 2 re-register.
	agg2, err := NewTieredAsyncAggregator("127.0.0.1:0", base)
	if err != nil {
		t.Fatal(err)
	}
	defer agg2.Close()
	for id := 0; id < 3; id++ {
		go RunWorker(agg2.Addr(), WorkerConfig{ClientID: id, NumSamples: 1, Train: echoTrain(1, 1, 0)}) //nolint:errcheck
	}
	if err := agg2.WaitForWorkers(3, 5*time.Second); err != nil {
		t.Fatal(err)
	}
	if err := agg2.Resume(ckpt); !errors.Is(err, ErrRosterChanged) {
		t.Fatalf("Resume with a shrunken roster: err = %v, want ErrRosterChanged", err)
	}
	if err := agg2.ResumeModel(ckpt); err != nil {
		t.Fatal(err)
	}
	res, err := agg2.Run([][]int{{0, 1}, {2}}) // fresh tiers over the new roster
	if err != nil {
		t.Fatal(err)
	}
	if want := target - ckpt.Version; len(res.Log) != want {
		t.Fatalf("degraded resume applied %d commits, want %d", len(res.Log), want)
	}
	if res.Log[0].Version != ckpt.Version+1 {
		t.Fatalf("first resumed commit at version %d, want %d", res.Log[0].Version, ckpt.Version+1)
	}
	if res.UplinkBytes <= ckpt.UplinkBytes {
		t.Fatalf("cumulative uplink %d did not grow past checkpointed %d", res.UplinkBytes, ckpt.UplinkBytes)
	}
}

// TestTieredAsyncNetResumeValidation pins the refusal reasons: a
// checkpoint that disagrees with the aggregator's job identity (seed,
// model shape, format, target), carries broken state, or requires a
// tiering Manager the aggregator does not have must be rejected with a
// descriptive error before any aggregator state is touched.
func TestTieredAsyncNetResumeValidation(t *testing.T) {
	good := func() *flcore.TieredCheckpoint {
		return &flcore.TieredCheckpoint{
			Format: flcore.TieredCheckpointFormat, Seed: 5, Version: 4,
			Weights: []float64{0.5}, Rounds: []int{2, 2}, Commits: []int{2, 2},
			Tiers: [][]int{{0}, {1}},
		}
	}
	agg, err := NewTieredAsyncAggregator("127.0.0.1:0", TieredAsyncConfig{
		GlobalCommits: 10, ClientsPerRound: 1,
		RoundTimeout: 2 * time.Second, InitialWeights: []float64{0}, Seed: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer agg.Close()
	for id := 0; id < 2; id++ {
		go RunWorker(agg.Addr(), WorkerConfig{ClientID: id, NumSamples: 1, Train: echoTrain(1, 1, 0)}) //nolint:errcheck
	}
	if err := agg.WaitForWorkers(2, 5*time.Second); err != nil {
		t.Fatal(err)
	}

	cases := map[string]func(c *flcore.TieredCheckpoint){
		"no tiers":             func(c *flcore.TieredCheckpoint) { c.Tiers = nil },
		"cursor mismatch":      func(c *flcore.TieredCheckpoint) { c.Rounds = []int{2} },
		"unknown format":       func(c *flcore.TieredCheckpoint) { c.Format = flcore.TieredCheckpointFormat + 1 },
		"seed mismatch":        func(c *flcore.TieredCheckpoint) { c.Seed = 6 },
		"weight length":        func(c *flcore.TieredCheckpoint) { c.Weights = []float64{1, 2} },
		"non-finite weight":    func(c *flcore.TieredCheckpoint) { c.Weights = []float64{math.NaN()} },
		"negative version":     func(c *flcore.TieredCheckpoint) { c.Version = -1 },
		"nothing left to run":  func(c *flcore.TieredCheckpoint) { c.Version = 10 },
		"orphan manager state": func(c *flcore.TieredCheckpoint) { c.ManagerState = []byte{1, 2, 3} },
		"negative round":       func(c *flcore.TieredCheckpoint) { c.Rounds[1] = -1 },
		"negative commits":     func(c *flcore.TieredCheckpoint) { c.Commits[0] = -2 },
		"negative uplink":      func(c *flcore.TieredCheckpoint) { c.UplinkBytes = -1 },
		"negative downlink":    func(c *flcore.TieredCheckpoint) { c.DownlinkBytes = -1 },
		"negative retiers":     func(c *flcore.TieredCheckpoint) { c.Retiers = -1 },
		"negative migrations":  func(c *flcore.TieredCheckpoint) { c.Migrations = -1 },
	}
	for name, mutate := range cases {
		c := good()
		mutate(c)
		if err := agg.Resume(c); err == nil {
			t.Errorf("%s accepted", name)
		}
		// The roster-changed flavour runs the same validation (it only
		// ignores the Manager's state).
		if err := agg.ResumeModel(c); err == nil && name != "orphan manager state" {
			t.Errorf("%s accepted by ResumeModel", name)
		}
	}
	if err := agg.Resume(&flcore.TieredCheckpoint{
		Format: flcore.TieredCheckpointFormat, Seed: 5, Version: 4,
		Weights: []float64{0.5}, Rounds: []int{4}, Commits: []int{4},
		Tiers: [][]int{{0, 7}},
	}); !errors.Is(err, ErrRosterChanged) {
		t.Errorf("unregistered checkpointed worker: err = %v, want ErrRosterChanged", err)
	}
	if err := agg.Resume(good()); err != nil {
		t.Errorf("valid checkpoint rejected after failed attempts: %v", err)
	}

	// The inverse manager mismatch: a managed aggregator must refuse a
	// checkpoint that carries no manager state.
	mgr, err := tiering.NewManager(tiering.Config{NumTiers: 2, ClientsPerRound: 1, Seed: 5},
		map[int]float64{0: 1, 1: 2})
	if err != nil {
		t.Fatal(err)
	}
	managed, err := NewTieredAsyncAggregator("127.0.0.1:0", TieredAsyncConfig{
		GlobalCommits: 10, ClientsPerRound: 1,
		RoundTimeout: 2 * time.Second, InitialWeights: []float64{0}, Seed: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer managed.Close()
	managed.SetManager(mgr)
	for id := 0; id < 2; id++ {
		go RunWorker(managed.Addr(), WorkerConfig{ClientID: id, NumSamples: 1, Train: echoTrain(1, 1, 0)}) //nolint:errcheck
	}
	if err := managed.WaitForWorkers(2, 5*time.Second); err != nil {
		t.Fatal(err)
	}
	if err := managed.Resume(good()); err == nil {
		t.Error("managed aggregator accepted a checkpoint without manager state")
	}
}

// TestTieredAsyncNetMetricsEndpoint polls the opt-in observability
// endpoint mid-run (from the checkpoint hook, so the version is pinned)
// and checks the JSON snapshot reflects the run's live state: commit
// progress, per-tier counters, traffic totals, and checkpoint freshness.
func TestTieredAsyncNetMetricsEndpoint(t *testing.T) {
	const target = 8
	var agg *TieredAsyncAggregator
	var once sync.Once
	var snap MetricsSnapshot
	var healthy atomic.Bool
	cfg := TieredAsyncConfig{
		GlobalCommits: target, ClientsPerRound: 1,
		RoundTimeout: 2 * time.Second, InitialWeights: []float64{0}, Seed: 12,
		MetricsAddr:     "127.0.0.1:0",
		CheckpointEvery: 2,
		OnCheckpoint: func(c *flcore.TieredCheckpoint) {
			if c.Version != target/2 {
				return
			}
			once.Do(func() {
				resp, err := http.Get("http://" + agg.MetricsAddr() + "/metrics")
				if err != nil {
					t.Errorf("GET /metrics: %v", err)
					return
				}
				defer resp.Body.Close()
				if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
					t.Errorf("decoding metrics: %v", err)
				}
				if h, err := http.Get("http://" + agg.MetricsAddr() + "/healthz"); err == nil {
					healthy.Store(h.StatusCode == http.StatusOK)
					h.Body.Close()
				}
			})
		},
	}
	agg, err := NewTieredAsyncAggregator("127.0.0.1:0", cfg)
	if err != nil {
		t.Fatal(err)
	}
	if agg.MetricsAddr() == "" {
		t.Fatal("metrics endpoint not listening")
	}
	for id := 0; id < 2; id++ {
		go RunWorker(agg.Addr(), WorkerConfig{ClientID: id, NumSamples: 1, Train: echoTrain(1, 1, 5*time.Millisecond)}) //nolint:errcheck
	}
	if err := agg.WaitForWorkers(2, 5*time.Second); err != nil {
		t.Fatal(err)
	}
	if _, err := agg.Run([][]int{{0}, {1}}); err != nil {
		t.Fatal(err)
	}

	if !snap.Running {
		t.Error("mid-run snapshot not marked running")
	}
	if snap.Version != target/2 || snap.TargetCommits != target {
		t.Errorf("snapshot at %d/%d, want %d/%d", snap.Version, snap.TargetCommits, target/2, target)
	}
	if len(snap.Tiers) != 2 {
		t.Fatalf("snapshot has %d tiers, want 2", len(snap.Tiers))
	}
	commits, rate := 0, 0.0
	for _, tm := range snap.Tiers {
		commits += tm.Commits
		rate += tm.RoundRatePerSec
		if tm.Members != 1 {
			t.Errorf("tier %d reports %d members, want 1", tm.Tier, tm.Members)
		}
	}
	if commits != target/2 {
		t.Errorf("per-tier commits sum to %d, want %d", commits, target/2)
	}
	if rate <= 0 {
		t.Error("round rate never moved")
	}
	if snap.UplinkBytes <= 0 || snap.DownlinkBytes <= 0 {
		t.Errorf("traffic counters uplink=%d downlink=%d", snap.UplinkBytes, snap.DownlinkBytes)
	}
	if snap.LiveWorkers != 2 {
		t.Errorf("live workers = %d, want 2", snap.LiveWorkers)
	}
	if snap.LastCheckpointVersion != target/2 || snap.LastCheckpointAgeSeconds < 0 {
		t.Errorf("checkpoint freshness: version %d age %.3f", snap.LastCheckpointVersion, snap.LastCheckpointAgeSeconds)
	}
	if !healthy.Load() {
		t.Error("healthz did not answer 200 mid-run")
	}
	final := agg.Metrics()
	if final.Running || final.Version != target {
		t.Errorf("post-run metrics running=%v version=%d, want stopped at %d", final.Running, final.Version, target)
	}
	addr := agg.MetricsAddr()
	agg.Close()
	if _, err := http.Get("http://" + addr + "/metrics"); err == nil {
		t.Error("metrics endpoint still serving after Close")
	}
}

// TestTieredAsyncNetCodecRenegotiationOnReassign closes the compression
// lifecycle over live re-tiering: a worker that migrates to the slow
// tier under a per-tier compression policy receives a renegotiated codec
// with its MsgTierReassign, switches its uplink encoding, and the run
// still reaches the full commit target — the aggregator accepts the
// worker's post-switch compressed updates.
func TestTieredAsyncNetCodecRenegotiationOnReassign(t *testing.T) {
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
		ReassignCodec: func(tier, numTiers int) string {
			if tier == 0 {
				return "none"
			}
			return "topk@0.5"
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer agg.Close()

	// Worker 1 reports 40 s rounds, so the rebuild at version 3 migrates
	// it into the slow tier; the reassignment carries the slow tier's
	// codec. It keeps training afterwards, so post-switch updates arrive
	// compressed.
	//
	// Training is instant, so either tier's loop can take every commit
	// before the other is scheduled; two gates (see trainGate) make the
	// interleaving the test's own. The slow tier {2,3} is held until worker
	// 0 is asked for tier-0 round 1: commit 1 is then tier 0's, and the
	// version-3 rebuild has worker 1's 40 s report. Worker 0 then holds
	// tier 0 from its round 3 on — by which time version 3 has passed and
	// worker 1 has migrated — until worker 1 trains after the codec
	// switch, so tier 0 cannot run off with the remaining commits.
	reported := []float64{1, 40, 10, 11}
	observed, postSwitch := newTrainGate(), newTrainGate()
	var mu sync.Mutex
	var specs []string
	var switched atomic.Bool
	var compressedRounds atomic.Int32
	for id := 0; id < 4; id++ {
		id := id
		cfg := WorkerConfig{
			ClientID: id, NumSamples: 1,
			Train:         echoTrain(1, 1, 0),
			ReportSeconds: func(round int) float64 { return reported[id] },
		}
		switch id {
		case 0:
			cfg.Train = postSwitch.holdFrom(3, observed.openFrom(1, cfg.Train))
		case 1:
			cfg.OnCodecRenegotiate = func(spec string) {
				mu.Lock()
				specs = append(specs, spec)
				mu.Unlock()
				switched.Store(true)
			}
			inner := cfg.Train
			cfg.Train = func(round int, weights []float64) ([]float64, int, error) {
				if switched.Load() {
					compressedRounds.Add(1)
					postSwitch.release()
				}
				return inner(round, weights)
			}
		default:
			cfg.Train = observed.hold(cfg.Train)
		}
		go RunWorker(agg.Addr(), cfg) //nolint:errcheck
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
		t.Fatalf("slow-reporting worker never re-tiered: %+v", res)
	}
	if tier, ok := mgr.TierOf(1); !ok || tier != 1 {
		t.Fatalf("worker 1 in tier %d after rebuild, want 1", tier)
	}
	mu.Lock()
	got := append([]string(nil), specs...)
	mu.Unlock()
	if len(got) == 0 {
		t.Fatal("migrated worker never saw a codec renegotiation")
	}
	if got[0] != "topk@0.5" {
		t.Fatalf("renegotiated codec %q, want topk@0.5", got[0])
	}
	if compressedRounds.Load() == 0 {
		t.Error("worker 1 never trained after the codec switch; the accept-window path is unexercised")
	}
}
