package flcore

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"strings"
	"testing"

	"repro/internal/compress"
	"repro/internal/dataset"
	"repro/internal/nn"
	"repro/internal/simres"
)

// TestEnginesRejectInvalidLatencyModel: a latency model that can draw a
// negative or non-finite latency is refused when an engine is built, one
// row per bad value. Before, JitterFrac 1.5 ran to completion and fed
// negative member latencies to the Manager.
func TestEnginesRejectInvalidLatencyModel(t *testing.T) {
	clients, tiers, test, tcfg := tieredFixture(t, 9)
	for _, tc := range []struct {
		name  string
		set   func(*simres.LatencyModel)
		field string
	}{
		{"jitter 1", func(m *simres.LatencyModel) { m.JitterFrac = 1 }, "JitterFrac"},
		{"jitter 1.5", func(m *simres.LatencyModel) { m.JitterFrac = 1.5 }, "JitterFrac"},
		{"jitter negative", func(m *simres.LatencyModel) { m.JitterFrac = -0.05 }, "JitterFrac"},
		{"jitter NaN", func(m *simres.LatencyModel) { m.JitterFrac = math.NaN() }, "JitterFrac"},
		{"cost negative", func(m *simres.LatencyModel) { m.CostPerSample = -0.01 }, "CostPerSample"},
		{"cost NaN", func(m *simres.LatencyModel) { m.CostPerSample = math.NaN() }, "CostPerSample"},
		{"cost +Inf", func(m *simres.LatencyModel) { m.CostPerSample = math.Inf(1) }, "CostPerSample"},
		{"comm negative", func(m *simres.LatencyModel) { m.CommLatency = -0.5 }, "CommLatency"},
		{"comm NaN", func(m *simres.LatencyModel) { m.CommLatency = math.NaN() }, "CommLatency"},
		{"comm +Inf", func(m *simres.LatencyModel) { m.CommLatency = math.Inf(1) }, "CommLatency"},
		{"per-param negative", func(m *simres.LatencyModel) { m.CommPerParam = -1e-4 }, "CommPerParam"},
		{"per-param NaN", func(m *simres.LatencyModel) { m.CommPerParam = math.NaN() }, "CommPerParam"},
		{"per-param +Inf", func(m *simres.LatencyModel) { m.CommPerParam = math.Inf(1) }, "CommPerParam"},
	} {
		refused := func(engine string, build func()) {
			t.Helper()
			defer func() {
				p := recover()
				if p == nil {
					t.Errorf("%s: %s built", tc.name, engine)
				} else if msg := fmt.Sprint(p); !strings.Contains(msg, tc.field) {
					t.Errorf("%s: %s panicked with %q, want it to name %s", tc.name, engine, msg, tc.field)
				}
			}()
			build()
		}
		cfg := tcfg
		tc.set(&cfg.Latency)
		refused("the tiered engine", func() { NewTieredAsyncEngine(cfg, tiers, clients, test) })
		scfg := testConfig(1)
		tc.set(&scfg.Latency)
		refused("the synchronous engine", func() { NewEngine(scfg, clients, test) })
	}
}

// TestSyncRoundSteadyStateAllocs: once warm, a round of Engine.Run with
// Parallel set — selection, training, commit, the overlapped global
// evaluation — allocates less than a quarter of a model-sized vector: each
// cohort slot trains into its own reused vector, the commit copies into the
// engine's weights, the evaluation reuses its replica, and every trainer's
// scratch stays in the workspace it owns, whatever P runs it and whenever
// the GC runs. A warm round's bytes are the difference between a 20-round
// and a 10-round Run of one engine, so the per-Run copies cancel.
func TestSyncRoundSteadyStateAllocs(t *testing.T) {
	train := dataset.Generate(dataset.MNISTLike, 100, 1)
	test := dataset.Generate(dataset.MNISTLike, 50, 2)
	parts := dataset.PartitionIID(train.Len(), 5, rand.New(rand.NewSource(3)))
	clients := BuildClients(train, nil, parts, []float64{4, 2, 1, 0.5, 0.25}, 0, 1)
	e := NewEngine(Config{
		Rounds: 12, ClientsPerRound: 5, LocalEpochs: 1, BatchSize: 10, Seed: 5,
		Model: func(rng *rand.Rand) *nn.Model {
			return nn.NewMLP(rng, dataset.MNISTLike.Dim, []int{256}, 10, 0)
		},
		Optimizer: func(round int) nn.Optimizer { return nn.NewRMSprop(0.01, 0.995) },
		Latency:   simres.DefaultModel,
		EvalEvery: 1,
		Parallel:  true,
	}, clients, test)
	sel := &RandomSelector{NumClients: 5, ClientsPerRound: 5}
	e.Run(sel) // warm: replicas, slots, the evaluation's replica
	alloc := func(rounds int) uint64 {
		e.Cfg.Rounds = rounds
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		e.Run(sel)
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc
	}
	short, long := alloc(10), alloc(20)
	vec := uint64(8 * len(e.GlobalWeights()))
	per := (long - short) / 10
	t.Logf("%d B per warm round; a model-sized vector is %d B", per, vec)
	if long < short || per >= vec/4 {
		t.Fatalf("a warm synchronous round allocates %d B (10 rounds %d B, 20 rounds %d B), a quarter of a model-sized vector is %d B", per, short, long, vec/4)
	}
}

// TestTieredRoundSteadyStateAllocs: once warm, a tiered-sim tier round —
// dispatch, training on the pool, join, commit — allocates less than a
// quarter of a model-sized vector: each member trains into its tier's slot,
// a dense round copies the pull into its tier's buffer, the commit reuses
// the tier's aggregate, and each trainer's scratch stays in the workspace
// it owns, whatever P runs it and whenever the GC runs.
func TestTieredRoundSteadyStateAllocs(t *testing.T) {
	train := dataset.Generate(dataset.MNISTLike, 100, 1)
	parts := dataset.PartitionIID(train.Len(), 5, rand.New(rand.NewSource(3)))
	clients := BuildClients(train, nil, parts, []float64{4, 2, 1, 0.5, 0.25}, 0, 1)
	int8c := compress.NewInt8(0)
	for _, tc := range []struct {
		name     string
		codec    compress.Codec
		downlink *compress.Downlink
	}{
		{"dense", nil, nil},
		{"int8+delta-int8", int8c, &compress.Downlink{Codec: int8c}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := TieredAsyncConfig{
				CommitterConfig: CommitterConfig{ClientsPerRound: 5, Seed: 5, Downlink: tc.downlink},
				Duration:        math.MaxFloat64, BatchSize: 10, LocalEpochs: 1,
				Model: func(rng *rand.Rand) *nn.Model {
					return nn.NewMLP(rng, dataset.MNISTLike.Dim, []int{256}, 10, 0)
				},
				Optimizer: func(round int) nn.Optimizer { return nn.NewRMSprop(0.01, 0.995) },
				Latency:   simres.DefaultModel,
				Codec:     tc.codec,
			}
			e := NewTieredAsyncEngine(cfg, [][]int{{0, 1, 2, 3, 4}}, clients, nil)
			e.startTrainers()
			defer e.stopTrainers()
			var run *tierRun
			round := func() {
				e.dispatch(0, 0, run)
				if run = e.next(); run == nil {
					t.Fatal("the round never joined")
				}
				if _, _, err := e.com.Apply(run.Commit); err != nil {
					t.Fatal(err)
				}
			}
			// Warm: replicas, slots, residuals, and a full downlink ring.
			for range 12 {
				round()
			}
			const rounds = 10
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			for range rounds {
				round()
			}
			runtime.ReadMemStats(&after)
			vec := uint64(8 * len(e.com.Weights()))
			per := (after.TotalAlloc - before.TotalAlloc) / rounds
			t.Logf("%d B per warm round; a model-sized vector is %d B", per, vec)
			if per >= vec/4 {
				t.Fatalf("a warm tier round allocates %d B, a quarter of a model-sized vector is %d B", per, vec/4)
			}
		})
	}
}
