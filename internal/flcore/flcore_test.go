package flcore

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/dataset"
	"repro/internal/nn"
	"repro/internal/simres"
)

func testConfig(rounds int) Config {
	return Config{
		Rounds:          rounds,
		ClientsPerRound: 3,
		LocalEpochs:     1,
		BatchSize:       10,
		Seed:            42,
		Model: func(rng *rand.Rand) *nn.Model {
			return nn.NewMLP(rng, dataset.MNISTLike.Dim, []int{16}, 10, 0)
		},
		Optimizer: func(round int) nn.Optimizer {
			return nn.NewSGD(0.05, 0.9)
		},
		Latency:   simres.LatencyModel{CostPerSample: 0.01, CommLatency: 0.5},
		EvalEvery: 1,
	}
}

func testPopulation(t *testing.T, nClients int) ([]*Client, *dataset.Dataset) {
	t.Helper()
	train := dataset.Generate(dataset.MNISTLike, 1000, 1)
	test := dataset.Generate(dataset.MNISTLike, 400, 2)
	rng := rand.New(rand.NewSource(3))
	parts := dataset.PartitionIID(train.Len(), nClients, rng)
	cpus := simres.AssignGroups(nClients, []float64{4, 2, 1, 0.5, 0.1})
	return BuildClients(train, test, parts, cpus, 50, 7), test
}

func TestFedAvgWeightedMean(t *testing.T) {
	ups := []Update{
		{Weights: []float64{1, 1}, NumSamples: 1},
		{Weights: []float64{4, 4}, NumSamples: 3},
	}
	got := fedAvg(ups)
	if math.Abs(got[0]-3.25) > 1e-12 {
		t.Fatalf("FedAvg = %v, want [3.25 3.25]", got)
	}
}

func TestFedAvgIdenticalInputsFixedPoint(t *testing.T) {
	w := []float64{0.5, -1, 2}
	ups := []Update{{Weights: w, NumSamples: 5}, {Weights: w, NumSamples: 9}}
	got := fedAvg(ups)
	for i := range w {
		if math.Abs(got[i]-w[i]) > 1e-12 {
			t.Fatalf("FedAvg of identical weights changed them: %v", got)
		}
	}
}

// Property: FedAvg output is element-wise within [min, max] of the inputs
// (convex combination) and equals plain mean for equal sample counts.
func TestFedAvgConvexityProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		k := 2 + r.Intn(4)
		n := 1 + r.Intn(8)
		ups := make([]Update, k)
		for i := range ups {
			w := make([]float64, n)
			for j := range w {
				w[j] = r.NormFloat64()
			}
			ups[i] = Update{Weights: w, NumSamples: 1 + r.Intn(100)}
		}
		avg := fedAvg(ups)
		for j := 0; j < n; j++ {
			lo, hi := math.Inf(1), math.Inf(-1)
			for i := range ups {
				lo = math.Min(lo, ups[i].Weights[j])
				hi = math.Max(hi, ups[i].Weights[j])
			}
			if avg[j] < lo-1e-12 || avg[j] > hi+1e-12 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestFedAvgEmptyPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("FedAvgInto of no updates did not panic")
		}
	}()
	FedAvgInto(nil, nil)
}

// fedAvg is FedAvgInto into a fresh vector.
func fedAvg(ups []Update) []float64 {
	out := make([]float64, len(ups[0].Weights))
	FedAvgInto(out, ups)
	return out
}

func TestMaxLatency(t *testing.T) {
	ups := []Update{{Latency: 1}, {Latency: 5}, {Latency: 3}}
	if MaxLatency(ups) != 5 {
		t.Fatalf("MaxLatency = %v", MaxLatency(ups))
	}
}

func TestRandomSelectorProperties(t *testing.T) {
	s := &RandomSelector{NumClients: 20, ClientsPerRound: 5}
	rng := rand.New(rand.NewSource(1))
	for r := 0; r < 50; r++ {
		sel := s.Select(r, rng)
		if len(sel) != 5 {
			t.Fatalf("selected %d clients", len(sel))
		}
		seen := map[int]bool{}
		for _, c := range sel {
			if c < 0 || c >= 20 || seen[c] {
				t.Fatalf("bad selection %v", sel)
			}
			seen[c] = true
		}
	}
}

func TestRandomSelectorCoversAllClients(t *testing.T) {
	s := &RandomSelector{NumClients: 10, ClientsPerRound: 3}
	seen := map[int]bool{}
	for r := 0; r < 200; r++ {
		rng := rand.New(rand.NewSource(int64(r)))
		for _, c := range s.Select(r, rng) {
			seen[c] = true
		}
	}
	if len(seen) != 10 {
		t.Fatalf("only %d/10 clients ever selected", len(seen))
	}
}

func TestEngineRunImprovesAccuracy(t *testing.T) {
	clients, test := testPopulation(t, 10)
	cfg := testConfig(20)
	eng := NewEngine(cfg, clients, test)
	res := eng.Run(&RandomSelector{NumClients: 10, ClientsPerRound: cfg.ClientsPerRound})
	if len(res.History) != 20 {
		t.Fatalf("history has %d rounds", len(res.History))
	}
	first := res.History[0].Acc
	if res.FinalAcc <= first {
		t.Fatalf("no learning: first %v final %v", first, res.FinalAcc)
	}
	if res.FinalAcc < 0.5 {
		t.Fatalf("final accuracy %v too low", res.FinalAcc)
	}
}

func TestEngineDeterministicSerialVsParallel(t *testing.T) {
	clients, test := testPopulation(t, 10)
	cfg := testConfig(5)
	res1 := NewEngine(cfg, clients, test).Run(&RandomSelector{NumClients: 10, ClientsPerRound: 3})
	cfg2 := cfg
	cfg2.Parallel = true
	clients2, test2 := testPopulation(t, 10)
	res2 := NewEngine(cfg2, clients2, test2).Run(&RandomSelector{NumClients: 10, ClientsPerRound: 3})
	for i := range res1.Weights {
		if res1.Weights[i] != res2.Weights[i] {
			t.Fatalf("weight %d differs between serial and parallel runs", i)
		}
	}
	if res1.FinalAcc != res2.FinalAcc {
		t.Fatalf("accuracy differs: %v vs %v", res1.FinalAcc, res2.FinalAcc)
	}
}

func TestEngineSimTimeMonotone(t *testing.T) {
	clients, test := testPopulation(t, 10)
	eng := NewEngine(testConfig(10), clients, test)
	res := eng.Run(&RandomSelector{NumClients: 10, ClientsPerRound: 3})
	prev := 0.0
	for _, rec := range res.History {
		if rec.SimTime <= prev {
			t.Fatalf("SimTime not strictly increasing at round %d", rec.Round)
		}
		if rec.Latency <= 0 {
			t.Fatalf("non-positive round latency at round %d", rec.Round)
		}
		prev = rec.SimTime
	}
	if math.Abs(res.TotalTime-prev) > 1e-9 {
		t.Fatalf("TotalTime %v != last SimTime %v", res.TotalTime, prev)
	}
}

func TestEngineRoundLatencyIsMaxOfSelected(t *testing.T) {
	// With zero jitter, a round that includes a 0.1-CPU client must take
	// ~40x longer than a round of only 4-CPU clients.
	clients, test := testPopulation(t, 10)
	cfg := testConfig(1)
	cfg.Latency.JitterFrac = 0
	eng := NewEngine(cfg, clients, test)
	fixed := fixedSelector{0, 1} // both 4-CPU clients
	resFast := eng.Run(fixed)
	clients2, test2 := testPopulation(t, 10)
	eng2 := NewEngine(cfg, clients2, test2)
	resSlow := eng2.Run(fixedSelector{0, 9}) // includes the 0.1-CPU client
	if resSlow.TotalTime < resFast.TotalTime*5 {
		t.Fatalf("straggler round %v not ≫ fast round %v", resSlow.TotalTime, resFast.TotalTime)
	}
}

type fixedSelector []int

func (f fixedSelector) Select(r int, rng *rand.Rand) []int { return f }

// TestEngineEmptySelectionPanics: a selector that picks nobody is named as
// the fault, as the socket driver names it.
func TestEngineEmptySelectionPanics(t *testing.T) {
	clients, test := testPopulation(t, 5)
	defer func() {
		if p := recover(); !strings.Contains(fmt.Sprint(p), "selector returned no clients in round 0") {
			t.Fatalf("Run panicked with %v, want the empty selection named", p)
		}
	}()
	NewEngine(testConfig(2), clients, test).Run(fixedSelector(nil))
}

func TestEngineEvalEverySkipsEvals(t *testing.T) {
	clients, test := testPopulation(t, 10)
	cfg := testConfig(10)
	cfg.EvalEvery = 5
	res := NewEngine(cfg, clients, test).Run(&RandomSelector{NumClients: 10, ClientsPerRound: 3})
	evals := 0
	for _, rec := range res.History {
		if !math.IsNaN(rec.Acc) {
			evals++
		}
	}
	// rounds 0, 5 and the final round 9.
	if evals != 3 {
		t.Fatalf("evaluated %d rounds, want 3", evals)
	}
}

func TestEngineObserverCalledEveryRound(t *testing.T) {
	clients, test := testPopulation(t, 10)
	obs := &observingSelector{inner: &RandomSelector{NumClients: 10, ClientsPerRound: 3}}
	NewEngine(testConfig(7), clients, test).Run(obs)
	if obs.calls != 7 {
		t.Fatalf("observer called %d times, want 7", obs.calls)
	}
	if obs.lastAcc <= 0 || obs.lastAcc > 1 {
		t.Fatalf("observer saw accuracy %v", obs.lastAcc)
	}
}

type observingSelector struct {
	inner   Selector
	calls   int
	lastAcc float64
	testSet *dataset.Dataset
}

func (o *observingSelector) Select(r int, rng *rand.Rand) []int { return o.inner.Select(r, rng) }

func (o *observingSelector) AfterRound(r int, eval func(d *dataset.Dataset) float64) {
	o.calls++
	if o.testSet == nil {
		o.testSet = dataset.Generate(dataset.MNISTLike, 50, 99)
	}
	o.lastAcc = eval(o.testSet)
}

func TestBuildClientsLocalTests(t *testing.T) {
	train := dataset.Generate(dataset.CIFAR10Like, 1000, 1)
	test := dataset.Generate(dataset.CIFAR10Like, 500, 2)
	rng := rand.New(rand.NewSource(1))
	parts := dataset.PartitionByClass(train, 10, 2, rng)
	cpus := simres.AssignGroups(10, []float64{4, 2, 1, 0.5, 0.1})
	clients := BuildClients(train, test, parts, cpus, 40, 5)
	for _, c := range clients {
		if c.Test == nil || c.Test.Len() == 0 {
			t.Fatalf("client %d has no local test data", c.ID)
		}
		// Local test classes must be a subset of the client's train classes.
		have := map[int]bool{}
		for _, y := range c.Train.Y {
			have[y] = true
		}
		for _, y := range c.Test.Y {
			if !have[y] {
				t.Fatalf("client %d test class %d not in train classes", c.ID, y)
			}
		}
	}
}

func TestBuildClientsMismatchPanics(t *testing.T) {
	train := dataset.Generate(dataset.MNISTLike, 100, 1)
	defer func() {
		if recover() == nil {
			t.Fatal("mismatched parts/cpus did not panic")
		}
	}()
	BuildClients(train, nil, make([][]int, 3), make([]float64, 4), 0, 1)
}

func TestConfigValidation(t *testing.T) {
	cfg := testConfig(5)
	cfg.Rounds = 0
	mustPanic(t, func() { NewEngine(cfg, nil, nil) })
	cfg = testConfig(5)
	cfg.Model = nil
	mustPanic(t, func() { NewEngine(cfg, nil, nil) })
	cfg = testConfig(5)
	mustPanic(t, func() { NewEngine(cfg, nil, nil) }) // no clients
}

func mustPanic(t *testing.T, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	f()
}

func TestMixDeterministicAndSpread(t *testing.T) {
	a := mix(1, 2, 3)
	if a != mix(1, 2, 3) {
		t.Fatal("mix not deterministic")
	}
	seen := map[int64]bool{}
	for i := 0; i < 100; i++ {
		for j := 0; j < 10; j++ {
			seen[mix(42, i, j)] = true
		}
	}
	if len(seen) != 1000 {
		t.Fatalf("mix collisions: %d unique of 1000", len(seen))
	}
}

func TestTransformUpdateHook(t *testing.T) {
	clients, test := testPopulation(t, 10)
	cfg := testConfig(3)
	calls := 0
	cfg.TransformUpdate = func(round int, global []float64, u *Update) {
		calls++
		if len(global) != len(u.Weights) {
			t.Fatalf("global length %d vs update %d", len(global), len(u.Weights))
		}
		// Zero the delta: update becomes the global weights again.
		copy(u.Weights, global)
	}
	res := NewEngine(cfg, clients, test).Run(&RandomSelector{NumClients: 10, ClientsPerRound: 3})
	if calls != 3*3 {
		t.Fatalf("transform called %d times, want 9", calls)
	}
	// With all updates reset to global, weights never move: the final
	// weights equal a freshly initialized model's.
	clients2, _ := testPopulation(t, 10)
	init := NewEngine(testConfig(3), clients2, nil).GlobalWeights()
	for i := range init {
		if math.Abs(res.Weights[i]-init[i]) > 1e-12 {
			t.Fatal("weights moved despite identity transform")
		}
	}
}

func TestTotalSamples(t *testing.T) {
	clients, _ := testPopulation(t, 10)
	if TotalSamples(clients) != 1000 {
		t.Fatalf("TotalSamples = %d", TotalSamples(clients))
	}
}
