package core

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/dataset"
	"repro/internal/flcore"
	"repro/internal/nn"
	"repro/internal/simres"
)

// mlpFactory builds the small MLP used by integration tests here.
func mlpFactory() flcore.ModelFactory {
	return func(rng *rand.Rand) *nn.Model {
		return nn.NewMLP(rng, dataset.CIFAR10Like.Dim, []int{24}, 10, 0)
	}
}

func sgdFactory() flcore.OptimizerFactory {
	return func(round int) nn.Optimizer { return nn.NewSGD(0.05, 0.9) }
}

// makeClients builds n clients over 5 CPU groups with IID data.
func makeClients(t testing.TB, n int) []*flcore.Client {
	t.Helper()
	train := dataset.Generate(dataset.CIFAR10Like, n*100, 1)
	test := dataset.Generate(dataset.CIFAR10Like, 400, 2)
	rng := rand.New(rand.NewSource(1))
	parts := dataset.PartitionIID(train.Len(), n, rng)
	cpus := simres.AssignGroups(n, simres.GroupsCIFAR)
	return flcore.BuildClients(train, test, parts, cpus, 40, 3)
}

var testLM = simres.LatencyModel{CostPerSample: 0.01, CommLatency: 0.5, JitterFrac: 0.05}

func TestProfileSeparatesGroups(t *testing.T) {
	clients := makeClients(t, 50)
	res := Profile(clients, testLM, DefaultProfiler)
	if len(res.Dropouts) != 0 {
		t.Fatalf("unexpected dropouts: %v", res.Dropouts)
	}
	if len(res.Latency) != 50 {
		t.Fatalf("profiled %d clients", len(res.Latency))
	}
	// 4-CPU clients (0-9) must profile faster than 0.1-CPU clients (40-49).
	if res.Latency[0] >= res.Latency[45] {
		t.Fatalf("fast client latency %v ≥ slow client %v", res.Latency[0], res.Latency[45])
	}
	// Spread should be roughly 40x in compute (4 vs 0.1 CPU).
	ratio := res.Latency[45] / res.Latency[0]
	if ratio < 10 {
		t.Fatalf("latency spread %v too small", ratio)
	}
}

func TestProfileTmaxDropouts(t *testing.T) {
	clients := makeClients(t, 50)
	cfg := DefaultProfiler
	cfg.Tmax = 4.0 // 0.1-CPU clients need ~10s, so they all time out
	res := Profile(clients, testLM, cfg)
	if len(res.Dropouts) == 0 {
		t.Fatal("expected slow clients to drop out under tight Tmax")
	}
	for _, d := range res.Dropouts {
		if clients[d].CPU > 0.11 {
			t.Fatalf("client %d with %v CPUs wrongly dropped", d, clients[d].CPU)
		}
		if _, ok := res.Latency[d]; ok {
			t.Fatalf("dropout %d still has a latency entry", d)
		}
	}
}

func TestProfileBadConfigPanics(t *testing.T) {
	clients := makeClients(t, 5)
	defer func() {
		if recover() == nil {
			t.Fatal("zero SyncRounds did not panic")
		}
	}()
	Profile(clients, testLM, ProfilerConfig{SyncRounds: 0, Tmax: 1})
}

func TestBuildTiersEqualWidthOrdering(t *testing.T) {
	clients := makeClients(t, 50)
	res := Profile(clients, testLM, DefaultProfiler)
	tiers := BuildTiers(res.Latency, 5, EqualWidth)
	if len(tiers) < 2 {
		t.Fatalf("only %d tiers", len(tiers))
	}
	checkTierInvariants(t, tiers, res.Latency, 50)
}

func TestBuildTiersQuantileBalanced(t *testing.T) {
	clients := makeClients(t, 50)
	res := Profile(clients, testLM, DefaultProfiler)
	tiers := BuildTiers(res.Latency, 5, Quantile)
	if len(tiers) != 5 {
		t.Fatalf("quantile produced %d tiers, want 5", len(tiers))
	}
	for _, tr := range tiers {
		if len(tr.Members) != 10 {
			t.Fatalf("tier %d has %d members, want 10", tr.ID, len(tr.Members))
		}
	}
	checkTierInvariants(t, tiers, res.Latency, 50)
}

// checkTierInvariants: every profiled client in exactly one tier; tiers
// ordered by increasing mean latency; IDs sequential.
func checkTierInvariants(t *testing.T, tiers []Tier, lat map[int]float64, n int) {
	t.Helper()
	seen := map[int]bool{}
	for i, tr := range tiers {
		if tr.ID != i {
			t.Fatalf("tier ID %d at position %d", tr.ID, i)
		}
		if len(tr.Members) == 0 {
			t.Fatalf("empty tier %d", i)
		}
		for _, c := range tr.Members {
			if seen[c] {
				t.Fatalf("client %d in multiple tiers", c)
			}
			seen[c] = true
		}
		if i > 0 && tiers[i-1].MeanLatency > tr.MeanLatency {
			t.Fatalf("tiers not ordered: %v then %v", tiers[i-1].MeanLatency, tr.MeanLatency)
		}
	}
	if len(seen) != len(lat) {
		t.Fatalf("tiers cover %d clients, profiled %d", len(seen), len(lat))
	}
}

// Property: for random latency maps both strategies partition all clients.
func TestBuildTiersPartitionProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 5 + r.Intn(60)
		lat := make(map[int]float64, n)
		for i := 0; i < n; i++ {
			lat[i] = 0.1 + r.Float64()*100
		}
		for _, strat := range []TieringStrategy{EqualWidth, Quantile} {
			tiers := BuildTiers(lat, 1+r.Intn(7), strat)
			seen := map[int]bool{}
			for _, tr := range tiers {
				for _, c := range tr.Members {
					if seen[c] {
						return false
					}
					seen[c] = true
				}
			}
			if len(seen) != n {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestBuildTiersIdenticalLatencies(t *testing.T) {
	lat := map[int]float64{0: 5, 1: 5, 2: 5}
	tiers := BuildTiers(lat, 3, EqualWidth)
	if len(tiers) != 1 || len(tiers[0].Members) != 3 {
		t.Fatalf("identical latencies should collapse to one tier, got %d", len(tiers))
	}
	if tiers[0].MeanLatency != 5 {
		t.Fatalf("mean latency = %v", tiers[0].MeanLatency)
	}
}

// Regression: degenerate inputs — fewer clients (or fewer distinct
// latencies) than requested tiers, or an empty profile — must collapse to
// non-empty tiers (or nil) rather than emit empty ones.
func TestBuildTiersDegenerateInputs(t *testing.T) {
	for _, strat := range []TieringStrategy{EqualWidth, Quantile} {
		if tiers := BuildTiers(map[int]float64{}, 5, strat); tiers != nil {
			t.Fatalf("empty profile built %d tiers, want nil", len(tiers))
		}
		// Two clients, five requested tiers: exactly two non-empty tiers.
		tiers := BuildTiers(map[int]float64{7: 1, 3: 9}, 5, strat)
		if len(tiers) != 2 {
			t.Fatalf("strategy %d: 2 clients over 5 requested tiers built %d tiers", strat, len(tiers))
		}
		for i, tr := range tiers {
			if len(tr.Members) == 0 {
				t.Fatalf("strategy %d: tier %d is empty", strat, i)
			}
			if tr.ID != i {
				t.Fatalf("strategy %d: tier IDs not consecutive: %+v", strat, tiers)
			}
		}
		if tiers[0].Members[0] != 7 || tiers[1].Members[0] != 3 {
			t.Fatalf("strategy %d: fastest-first ordering broken: %+v", strat, tiers)
		}
		// A single client is one singleton tier regardless of m.
		if tiers := BuildTiers(map[int]float64{4: 2.5}, 4, strat); len(tiers) != 1 || len(tiers[0].Members) != 1 {
			t.Fatalf("strategy %d: singleton profile built %+v", strat, tiers)
		}
	}
	// Fewer distinct latencies than tiers under Quantile still yields
	// min(m, n) non-empty tiers (ties split by client ID).
	tiers := BuildTiers(map[int]float64{0: 1, 1: 1, 2: 1, 3: 1}, 8, Quantile)
	if len(tiers) != 4 {
		t.Fatalf("quantile over 4 tied clients with m=8 built %d tiers", len(tiers))
	}
	for _, tr := range tiers {
		if len(tr.Members) != 1 {
			t.Fatalf("tied quantile tiers not singletons: %+v", tiers)
		}
	}
}

func TestAdaptiveProbsShared(t *testing.T) {
	// Uniform when equally accurate, boosted when struggling, NaN treated
	// as accuracy 0, and always a probability vector.
	p := changeProbs([]float64{0.5, 0.5, 0.5}, 2)
	for _, v := range p {
		if math.Abs(v-1.0/3) > 1e-12 {
			t.Fatalf("equal accuracies not uniform: %v", p)
		}
	}
	p = changeProbs([]float64{0.9, math.NaN(), 0.5}, 2)
	if !(p[1] > p[2] && p[2] > p[0]) {
		t.Fatalf("struggling tiers not boosted: %v", p)
	}
	sum := 0.0
	for _, v := range p {
		sum += v
	}
	if math.Abs(sum-1) > 1e-12 {
		t.Fatalf("probs sum to %v", sum)
	}
	// All tiers at perfect accuracy degrade to uniform, not zero.
	p = changeProbs([]float64{1, 1}, 2)
	if p[0] != 0.5 || p[1] != 0.5 {
		t.Fatalf("perfect accuracies: %v", p)
	}
}

func TestTierOfAndLatencies(t *testing.T) {
	lat := map[int]float64{0: 1, 1: 2, 2: 10, 3: 11}
	tiers := BuildTiers(lat, 2, EqualWidth)
	m := TierOf(tiers)
	if m[0] != 0 || m[3] != 1 {
		t.Fatalf("TierOf = %v", m)
	}
	ls := TierLatencies(tiers)
	if len(ls) != 2 || ls[0] != 1.5 || ls[1] != 10.5 {
		t.Fatalf("TierLatencies = %v", ls)
	}
}

func TestTable1PoliciesValid(t *testing.T) {
	for _, p := range append(PoliciesCIFAR(), PoliciesMNIST()...) {
		if err := p.Validate(); err != nil {
			t.Errorf("policy %q invalid: %v", p.Name, err)
		}
		if len(p.Probs) != 5 {
			t.Errorf("policy %q has %d tiers", p.Name, len(p.Probs))
		}
	}
	// Spot-check exact Table 1 values.
	if PolicyRandom.Probs[0] != 0.7 || PolicyRandom.Probs[4] != 0.05 {
		t.Errorf("random policy = %v", PolicyRandom.Probs)
	}
	if PolicyFast3.Probs[4] != 0 || PolicyFast3.Probs[0] != 0.25 {
		t.Errorf("fast3 policy = %v", PolicyFast3.Probs)
	}
}

func TestStaticSelectorRespectsPolicy(t *testing.T) {
	clients := makeClients(t, 50)
	res := Profile(clients, testLM, DefaultProfiler)
	tiers := BuildTiers(res.Latency, 5, Quantile)
	sel := NewStaticSelector(tiers, PolicyFast, 5)
	rng := rand.New(rand.NewSource(9))
	fastSet := map[int]bool{}
	for _, c := range tiers[0].Members {
		fastSet[c] = true
	}
	for r := 0; r < 100; r++ {
		for _, c := range sel.Select(r, rng) {
			if !fastSet[c] {
				t.Fatalf("fast policy selected client %d outside tier 1", c)
			}
		}
	}
}

func TestStaticSelectorDistribution(t *testing.T) {
	clients := makeClients(t, 50)
	res := Profile(clients, testLM, DefaultProfiler)
	tiers := BuildTiers(res.Latency, 5, Quantile)
	sel := NewStaticSelector(tiers, PolicyRandom, 5)
	rng := rand.New(rand.NewSource(10))
	tierOf := TierOf(tiers)
	counts := make([]int, 5)
	const rounds = 5000
	for r := 0; r < rounds; r++ {
		picked := sel.Select(r, rng)
		counts[tierOf[picked[0]]]++
	}
	for i, want := range PolicyRandom.Probs {
		got := float64(counts[i]) / rounds
		if math.Abs(got-want) > 0.03 {
			t.Fatalf("tier %d selected %v of rounds, want %v", i, got, want)
		}
	}
}

func TestStaticSelectorSameTierPerRound(t *testing.T) {
	clients := makeClients(t, 50)
	res := Profile(clients, testLM, DefaultProfiler)
	tiers := BuildTiers(res.Latency, 5, Quantile)
	sel := NewStaticSelector(tiers, PolicyUniform, 5)
	tierOf := TierOf(tiers)
	rng := rand.New(rand.NewSource(11))
	for r := 0; r < 50; r++ {
		picked := sel.Select(r, rng)
		if len(picked) != 5 {
			t.Fatalf("selected %d clients", len(picked))
		}
		first := tierOf[picked[0]]
		for _, c := range picked[1:] {
			if tierOf[c] != first {
				t.Fatalf("round %d mixes tiers %d and %d", r, first, tierOf[c])
			}
		}
	}
}

func TestStaticSelectorValidation(t *testing.T) {
	tiers := []Tier{{ID: 0, Members: []int{0}}, {ID: 1, Members: []int{1}}}
	mustPanic(t, func() {
		NewStaticSelector(tiers, StaticPolicy{Name: "bad", Probs: []float64{0.5, 0.2}}, 1)
	})
	mustPanic(t, func() { NewStaticSelector(tiers, PolicyUniform, 1) }) // 5 probs, 2 tiers
	mustPanic(t, func() {
		NewStaticSelector(tiers, StaticPolicy{Name: "x", Probs: []float64{0.5, 0.5}}, 0)
	})
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

func buildAdaptive(t *testing.T, cfg AdaptiveConfig) (*AdaptiveSelector, []Tier) {
	t.Helper()
	clients := makeClients(t, 50)
	res := Profile(clients, testLM, DefaultProfiler)
	tiers := BuildTiers(res.Latency, 5, Quantile)
	return NewAdaptiveSelector(tiers, clients, cfg), tiers
}

func TestAdaptiveInitialUniformProbs(t *testing.T) {
	sel, tiers := buildAdaptive(t, AdaptiveConfig{ClientsPerRound: 5})
	probs := sel.alg2.probs
	for _, p := range probs {
		if math.Abs(p-1/float64(len(tiers))) > 1e-12 {
			t.Fatalf("initial probs = %v, want uniform", probs)
		}
	}
}

func TestAdaptiveSelectsWithinOneTier(t *testing.T) {
	sel, tiers := buildAdaptive(t, AdaptiveConfig{ClientsPerRound: 5})
	tierOf := TierOf(tiers)
	rng := rand.New(rand.NewSource(12))
	for r := 0; r < 30; r++ {
		picked := sel.Select(r, rng)
		first := tierOf[picked[0]]
		for _, c := range picked {
			if tierOf[c] != first {
				t.Fatalf("round %d mixes tiers", r)
			}
		}
	}
}

func TestAdaptiveChangeProbsDirect(t *testing.T) {
	sel, _ := buildAdaptive(t, AdaptiveConfig{ClientsPerRound: 5, Interval: 2, Temperature: 2})
	// Inject accuracy history directly.
	accs := []float64{0.95, 0.9, 0.8, 0.6, 0.3}
	for t2 := range sel.accHist {
		sel.accHist[t2] = []float64{accs[t2]}
	}
	probs := changeProbs(sel.accuracies(0), sel.alg2.temperature)
	sum := 0.0
	for i := 1; i < len(probs); i++ {
		if probs[i] < probs[i-1] {
			t.Fatalf("lower-accuracy tier got lower probability: %v", probs)
		}
	}
	for _, p := range probs {
		sum += p
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Fatalf("changeProbs sums to %v", sum)
	}
	// Tier 4 (acc 0.3) should dominate tier 0 (acc 0.95) by (0.7/0.05)^2.
	if probs[4]/probs[0] < 100 {
		t.Fatalf("boost ratio %v too small", probs[4]/probs[0])
	}
}

func TestAdaptiveCreditsExhaustion(t *testing.T) {
	sel, _ := buildAdaptive(t, AdaptiveConfig{ClientsPerRound: 5, Credits: 2, Interval: 1000})
	rng := rand.New(rand.NewSource(14))
	// 5 tiers × 2 credits = 10 credited rounds; beyond that we fall back.
	for r := 0; r < 10; r++ {
		sel.Select(r, rng)
	}
	if sel.FallbackRounds() != 0 {
		t.Fatalf("fallback before credits exhausted: %d", sel.FallbackRounds())
	}
	for _, c := range sel.alg2.credits {
		if c != 0 {
			t.Fatalf("credits remaining %v after exhaustion", sel.alg2.credits)
		}
	}
	sel.Select(10, rng)
	if sel.FallbackRounds() != 1 {
		t.Fatalf("fallback count = %d, want 1", sel.FallbackRounds())
	}
}

func TestAdaptiveCreditsNeverNegative(t *testing.T) {
	sel, _ := buildAdaptive(t, AdaptiveConfig{ClientsPerRound: 5, Credits: 3, Interval: 1000})
	rng := rand.New(rand.NewSource(15))
	for r := 0; r < 100; r++ {
		sel.Select(r, rng)
		for _, c := range sel.alg2.credits {
			if c < 0 {
				t.Fatalf("negative credits at round %d", r)
			}
		}
	}
}

func TestAdaptiveEndToEndOutperformsFastOnSkewedData(t *testing.T) {
	// Integration: quantity-skewed data (tier 1 = 10% of data). The fast
	// policy trains only on tier 1 and must end with lower accuracy than
	// the adaptive policy, reproducing the paper's core claim (Fig. 7).
	train := dataset.Generate(dataset.CIFAR10Like, 3000, 21)
	test := dataset.Generate(dataset.CIFAR10Like, 600, 22)
	rng := rand.New(rand.NewSource(23))
	parts := dataset.PartitionQuantity(train.Len(), 50, dataset.QuantityFractions, rng)
	// Fast group has the least data AND the most CPU, like the paper.
	cpus := simres.AssignGroups(50, simres.GroupsCIFAR)
	clients := flcore.BuildClients(train, test, parts, cpus, 60, 24)

	prof := Profile(clients, testLM, DefaultProfiler)
	tiers := BuildTiers(prof.Latency, 5, Quantile)

	runPolicy := func(sel flcore.Selector) *flcore.Result {
		c := flcore.Config{
			Rounds: 40, ClientsPerRound: 5, LocalEpochs: 1, BatchSize: 10, Seed: 25,
			Model:     mlpFactory(),
			Optimizer: sgdFactory(),
			Latency:   testLM,
			EvalEvery: 5,
		}
		// fresh clients per run so local state cannot leak
		cl := flcore.BuildClients(train, test, parts, cpus, 60, 24)
		return flcore.NewEngine(c, cl, test).Run(sel)
	}

	fast := runPolicy(NewStaticSelector(tiers, PolicyFast, 5))
	adaptive := runPolicy(NewAdaptiveSelector(tiers, clients, AdaptiveConfig{ClientsPerRound: 5, Interval: 5, Temperature: 2, TestPerTier: 100, Seed: 26}))

	if adaptive.FinalAcc <= fast.FinalAcc-0.02 {
		t.Fatalf("adaptive %.3f should not trail fast %.3f on skewed data", adaptive.FinalAcc, fast.FinalAcc)
	}
	// Fast must be the faster policy in simulated time (it only uses tier 1).
	if fast.TotalTime >= adaptive.TotalTime {
		t.Fatalf("fast time %v ≥ adaptive time %v", fast.TotalTime, adaptive.TotalTime)
	}
}
