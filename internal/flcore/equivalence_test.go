package flcore_test

// Engine-swap equivalence suite: the event-driven population-scale engine
// (NewTieredAsyncEngineFrom over a LazyClients source) must reproduce the
// legacy resident-population engine (NewTieredAsyncEngine over BuildClients)
// bit for bit on the same seed — commit logs, evaluation histories, uplink
// accounting, and final weights. This is the contract that lets million-
// client runs use lazy materialization without a separate code path to
// validate: everything proven about the eager engine transfers.
//
// The tests live in an external package because the managed configurations
// need internal/tiering, which imports flcore.

import (
	"math"
	"math/rand"
	"reflect"
	"strconv"
	"testing"

	"repro/internal/compress"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/flcore"
	"repro/internal/nn"
	"repro/internal/simres"
	"repro/internal/tiering"
)

// eqFixture holds the shared inputs both engines derive their populations
// from. Nothing here is per-engine state: each run builds its own clients
// (eager) or factory-backed source (lazy) from these immutable pieces.
type eqFixture struct {
	n           int
	train, test *dataset.Dataset
	parts       [][]int
	cpus        []float64
	tiers       [][]int
	lat         map[int]float64
	cfg         flcore.TieredAsyncConfig
}

// eqDrift is the pure drift schedule used by the re-tiering cases: the
// three fastest clients collapse to 5% CPU from tier round 4 on. It must be
// a pure function of (id, round) — a latching closure would give the lazy
// engine, which re-materializes clients per round, different drift history
// than the eager engine's long-lived closures.
func eqDrift(id int) func(round int) float64 {
	if id >= 3 {
		return nil
	}
	return func(round int) float64 {
		if round >= 4 {
			return 0.05
		}
		return 1
	}
}

func newEqFixture(t *testing.T, n int) *eqFixture {
	t.Helper()
	train := dataset.Generate(dataset.CIFAR10Like, max(600, 2*n), 1)
	test := dataset.Generate(dataset.CIFAR10Like, 200, 2)
	fx := &eqFixture{
		n:     n,
		train: train,
		test:  test,
		parts: dataset.PartitionIID(train.Len(), n, rand.New(rand.NewSource(3))),
		cpus:  make([]float64, n),
	}
	// Three contiguous CPU groups, fastest first (what AssignGroups does,
	// minus its divisibility requirement — N=50/500 are not multiples of 3).
	groups := []float64{4, 1, 0.25}
	fx.tiers = make([][]int, 3)
	for i := 0; i < n; i++ {
		g := i * 3 / n
		fx.cpus[i] = groups[g]
		fx.tiers[g] = append(fx.tiers[g], i)
	}
	// Synthetic latency profile consistent with the CPU groups (fastest
	// first, distinct values) so Manager-built quantile tiers reproduce
	// fx.tiers exactly, member order included.
	fx.lat = make(map[int]float64, n)
	for i, cpu := range fx.cpus {
		fx.lat[i] = 1/cpu + float64(i)*1e-6
	}
	fx.cfg = flcore.TieredAsyncConfig{
		Duration: 40, ClientsPerRound: 2,
		EvalInterval: 15, Seed: 7, BatchSize: 10, LocalEpochs: 1,
		Model: func(rng *rand.Rand) *nn.Model {
			return nn.NewMLP(rng, train.Dim(), []int{8}, 10, 0)
		},
		Optimizer: func(round int) nn.Optimizer { return nn.NewRMSprop(0.01, 0.995) },
		Latency:   simres.DefaultModel,
		EvalBatch: 64,
	}
	return fx
}

// eagerClients materializes the whole population the historical way.
func (fx *eqFixture) eagerClients(drift bool) []*flcore.Client {
	clients := flcore.BuildClients(fx.train, fx.test, fx.parts, fx.cpus, 20, 4)
	if drift {
		for _, c := range clients {
			c.Drift = eqDrift(c.ID)
		}
	}
	return clients
}

// factory derives single clients on demand — byte-identical to the eager
// population's entries by the BuildClient contract.
func (fx *eqFixture) factory(drift bool) flcore.ClientFactory {
	return func(id int) *flcore.Client {
		c := flcore.BuildClient(fx.train, fx.test, fx.parts[id], fx.cpus[id], 20, 4, id)
		if drift {
			c.Drift = eqDrift(id)
		}
		return c
	}
}

// manager builds a fresh live-tiering Manager over the fixture's synthetic
// latency profile. Each engine run gets its own instance: Managers are
// stateful and equivalence requires both runs to start from the same state.
func (fx *eqFixture) manager(t *testing.T, retierEvery int, adaptive bool) *tiering.Manager {
	t.Helper()
	cfg := tiering.Config{
		NumTiers: 3, RetierEvery: retierEvery,
		ClientsPerRound: fx.cfg.ClientsPerRound, Seed: fx.cfg.Seed,
	}
	if adaptive {
		cfg.Adaptive = true
		cfg.Credits = 3
	}
	mgr, err := tiering.NewManager(cfg, fx.lat)
	if err != nil {
		t.Fatal(err)
	}
	return mgr
}

// sameTieredResults asserts byte-identity of everything a tiered-async run
// reports: the commit log, per-tier counters, retier/migration totals,
// uplink and downlink accounting, the evaluation history (bit-compared,
// NaN-tolerant), and the final weight vector.
func sameTieredResults(t *testing.T, a, b *flcore.TieredAsyncResult) {
	t.Helper()
	if len(a.TierRounds) == 0 {
		t.Fatal("reference run committed no tier rounds")
	}
	if !reflect.DeepEqual(a.TierRounds, b.TierRounds) {
		n := min(len(a.TierRounds), len(b.TierRounds))
		for i := 0; i < n; i++ {
			if !reflect.DeepEqual(a.TierRounds[i], b.TierRounds[i]) {
				t.Fatalf("commit %d diverges:\n%+v\nvs\n%+v", i, a.TierRounds[i], b.TierRounds[i])
			}
		}
		t.Fatalf("commit logs differ in length: %d vs %d", len(a.TierRounds), len(b.TierRounds))
	}
	if !reflect.DeepEqual(a.Commits, b.Commits) {
		t.Fatalf("commit counts differ: %v vs %v", a.Commits, b.Commits)
	}
	if a.Retiers != b.Retiers || a.Migrations != b.Migrations {
		t.Fatalf("retier totals differ: %d/%d vs %d/%d", a.Retiers, a.Migrations, b.Retiers, b.Migrations)
	}
	if a.UplinkBytes != b.UplinkBytes || a.DownlinkBytes != b.DownlinkBytes {
		t.Fatalf("uplink/downlink bytes differ: %d/%d vs %d/%d", a.UplinkBytes, a.DownlinkBytes, b.UplinkBytes, b.DownlinkBytes)
	}
	if len(a.History) != len(b.History) {
		t.Fatalf("history lengths differ: %d vs %d", len(a.History), len(b.History))
	}
	for i := range a.History {
		ra, rb := a.History[i], b.History[i]
		if ra.Round != rb.Round || ra.SimTime != rb.SimTime ||
			math.Float64bits(ra.Acc) != math.Float64bits(rb.Acc) ||
			math.Float64bits(ra.Loss) != math.Float64bits(rb.Loss) {
			t.Fatalf("history[%d] differs: %+v vs %+v", i, ra, rb)
		}
	}
	if len(a.Weights) != len(b.Weights) {
		t.Fatalf("weight lengths differ: %d vs %d", len(a.Weights), len(b.Weights))
	}
	for i := range a.Weights {
		if math.Float64bits(a.Weights[i]) != math.Float64bits(b.Weights[i]) {
			t.Fatalf("weights differ at %d: %v vs %v", i, a.Weights[i], b.Weights[i])
		}
	}
}

// eqCase is one engine configuration both populations run under.
type eqCase struct {
	name    string
	drift   bool
	codec   compress.Codec
	weight  flcore.TierWeightFunc
	managed bool // membership from a fresh tiering.Manager
	retier  int  // Manager RetierEvery (managed only)
	adapt   bool // Manager Algorithm-2 adaptive selection (managed only)
}

func eqCases() []eqCase {
	return []eqCase{
		{name: "plain-fedat", weight: core.FedATWeights()},
		{name: "int8-codec", codec: compress.NewInt8(0)},
		{name: "topk-codec", codec: compress.NewTopK(0.25)},
		{name: "adaptive-selection", managed: true, retier: 10, adapt: true},
		{name: "live-retier", managed: true, retier: 8, drift: true},
	}
}

// runEq runs one configuration on both engines and returns (eager, lazy).
func runEq(t *testing.T, fx *eqFixture, c eqCase) (*flcore.TieredAsyncResult, *flcore.TieredAsyncResult) {
	t.Helper()
	build := func() (flcore.TieredAsyncConfig, [][]int) {
		cfg := fx.cfg
		cfg.Codec = c.codec
		cfg.TierWeight = c.weight
		tiers := fx.tiers
		if c.managed {
			cfg.Manager = fx.manager(t, c.retier, c.adapt)
			tiers = nil
		}
		return cfg, tiers
	}
	eagerCfg, eagerTiers := build()
	eager := flcore.NewTieredAsyncEngine(eagerCfg, eagerTiers, fx.eagerClients(c.drift), fx.test).Run()

	lazyCfg, lazyTiers := build()
	src := flcore.NewLazyClients(fx.n, fx.factory(c.drift))
	lazy := flcore.NewTieredAsyncEngineFrom(lazyCfg, lazyTiers, src, fx.test).Run()

	if st := src.Stats(); st.Live != 0 {
		t.Fatalf("%s: %d clients still materialized after the run", c.name, st.Live)
	}
	return eager, lazy
}

// TestScaledEngineEquivalence is the engine-swap proof at the paper's scale
// (N=50) and one order up (N=500): for every configuration the event-driven
// lazy engine reproduces the legacy eager engine bit for bit.
func TestScaledEngineEquivalence(t *testing.T) {
	sizes := []int{50}
	if !testing.Short() {
		sizes = append(sizes, 500)
	}
	for _, n := range sizes {
		fx := newEqFixture(t, n)
		for _, c := range eqCases() {
			c := c
			t.Run(c.name+"/n="+strconv.Itoa(n), func(t *testing.T) {
				eager, lazy := runEq(t, fx, c)
				sameTieredResults(t, eager, lazy)
				if c.managed && c.retier > 0 && c.drift && eager.Retiers == 0 {
					t.Fatal("live-retier case never re-tiered; the equivalence check is weaker than intended")
				}
			})
		}
	}
}

// TestScaledEngineCheckpointEquivalence covers the crash path: a managed,
// compressed lazy run checkpoints mid-flight; a fresh lazy engine restored
// from the encoded snapshot must finish the job bit-identically to an
// uninterrupted eager run — and so must a fresh EAGER engine restored from
// the same (lazy-produced) checkpoint, proving the two sources share one
// checkpoint format.
func TestScaledEngineCheckpointEquivalence(t *testing.T) {
	fx := newEqFixture(t, 50)
	mkCfg := func() flcore.TieredAsyncConfig {
		cfg := fx.cfg
		cfg.Codec = compress.NewInt8(0)
		cfg.Manager = fx.manager(t, 8, false)
		return cfg
	}

	ref := flcore.NewTieredAsyncEngine(mkCfg(), nil, fx.eagerClients(true), fx.test).Run()
	if len(ref.TierRounds) < 12 {
		t.Fatalf("reference run too short for a mid-run checkpoint: %d commits", len(ref.TierRounds))
	}

	// Interrupted lazy run: capture the first periodic snapshot, encoded —
	// the restore below must work from bytes, exactly like a crash restart.
	var snap []byte
	ckCfg := mkCfg()
	ckCfg.CheckpointEvery = 10
	ckCfg.OnCheckpoint = func(c *flcore.TieredCheckpoint) {
		if snap == nil {
			data, err := c.Encode()
			if err != nil {
				t.Errorf("encoding checkpoint: %v", err)
				return
			}
			snap = data
		}
	}
	interrupted := flcore.NewTieredAsyncEngineFrom(ckCfg, nil, flcore.NewLazyClients(fx.n, fx.factory(true)), fx.test).Run()
	sameTieredResults(t, ref, interrupted)
	if snap == nil {
		t.Fatal("no checkpoint captured")
	}
	ck, err := flcore.DecodeTieredCheckpoint(snap)
	if err != nil {
		t.Fatal(err)
	}

	resumeAndCompare := func(name string, eng *flcore.TieredAsyncEngine) {
		ck2, err := flcore.DecodeTieredCheckpoint(snap) // Restore may consume state; decode fresh
		if err != nil {
			t.Fatal(err)
		}
		if err := eng.Restore(ck2); err != nil {
			t.Fatalf("%s: restore: %v", name, err)
		}
		cont := eng.Run()
		if !reflect.DeepEqual(cont.Commits, ref.Commits) {
			t.Fatalf("%s: resumed commit counts %v, want %v", name, cont.Commits, ref.Commits)
		}
		if cont.UplinkBytes != ref.UplinkBytes {
			t.Fatalf("%s: resumed uplink %d, want %d", name, cont.UplinkBytes, ref.UplinkBytes)
		}
		if want := len(ref.TierRounds) - ck.Version; len(cont.TierRounds) != want {
			t.Fatalf("%s: resumed run committed %d rounds, want %d", name, len(cont.TierRounds), want)
		}
		for i, rec := range cont.TierRounds {
			if !reflect.DeepEqual(rec, ref.TierRounds[ck.Version+i]) {
				t.Fatalf("%s: resumed commit %d diverges:\n%+v\nvs\n%+v", name, i, rec, ref.TierRounds[ck.Version+i])
			}
		}
		for i := range cont.Weights {
			if math.Float64bits(cont.Weights[i]) != math.Float64bits(ref.Weights[i]) {
				t.Fatalf("%s: resumed weights differ at %d", name, i)
			}
		}
	}

	resumeAndCompare("lazy-resume",
		flcore.NewTieredAsyncEngineFrom(mkCfg(), nil, flcore.NewLazyClients(fx.n, fx.factory(true)), fx.test))
	resumeAndCompare("cross-restore-into-eager",
		flcore.NewTieredAsyncEngine(mkCfg(), nil, fx.eagerClients(true), fx.test))
}
