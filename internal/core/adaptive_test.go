package core

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/dataset"
	"repro/internal/flcore"
)

// tierTestData is the selector's per-tier evaluation sets (TestData_t),
// pooled by flcore.TierTestPools.
func tierTestData(t *testing.T, perTier int) ([]*dataset.Dataset, []Tier, []*flcore.Client) {
	t.Helper()
	clients := makeClients(t, 50)
	res := Profile(clients, testLM, DefaultProfiler)
	tiers := BuildTiers(res.Latency, 5, Quantile)
	sel := NewAdaptiveSelector(tiers, clients, AdaptiveConfig{ClientsPerRound: 5, TestPerTier: perTier, Seed: 1})
	return sel.tierTest, tiers, clients
}

func TestTierTestDataPooling(t *testing.T) {
	data, tiers, clients := tierTestData(t, 0)
	if len(data) != 5 {
		t.Fatalf("tier test sets = %d", len(data))
	}
	for ti, d := range data {
		// Unlimited pooling = sum of members' local test shards.
		want := 0
		for _, ci := range tiers[ti].Members {
			want += clients[ci].Test.Len()
		}
		if d.Len() != want {
			t.Fatalf("tier %d pooled %d samples, want %d", ti, d.Len(), want)
		}
	}
}

// The cap keeps a subset keyed on seed+tier: the selector's Algorithm-2
// picks depend on which samples it scores.
func TestTierTestDataCap(t *testing.T) {
	data, _, _ := tierTestData(t, 25)
	full, _, _ := tierTestData(t, 0)
	for ti, d := range data {
		if d.Len() != 25 {
			t.Fatalf("tier %d has %d samples, cap 25", ti, d.Len())
		}
		want := full[ti].Subset(rand.New(rand.NewSource(1 + int64(ti))).Perm(full[ti].Len())[:25])
		if !slices.Equal(d.Y, want.Y) || !slices.Equal(d.X.Data, want.X.Data) {
			t.Fatalf("tier %d subset is not the seed+tier-keyed one", ti)
		}
	}
}

func TestTierTestDataNoTestShardsPanics(t *testing.T) {
	clients := makeClients(t, 10)
	for _, c := range clients {
		c.Test = nil
	}
	tiers := []Tier{{ID: 0, Members: []int{0, 1}}}
	mustPanic(t, func() { NewAdaptiveSelector(tiers, clients, AdaptiveConfig{ClientsPerRound: 1}) })
}

func TestAdaptiveAfterRoundRecordsAllTiers(t *testing.T) {
	sel, tiers := buildAdaptive(t, AdaptiveConfig{ClientsPerRound: 5, Interval: 4})
	calls := 0
	sel.AfterRound(3, func(d *dataset.Dataset) float64 {
		calls++
		return 0.5
	})
	if calls != len(tiers) {
		t.Fatalf("eval called %d times, want %d", calls, len(tiers))
	}
	for ti := range tiers {
		if got := sel.tierAccuracy(ti, 3); got != 0.5 {
			t.Fatalf("tier %d accuracy = %v", ti, got)
		}
	}
	if !math.IsNaN(sel.tierAccuracy(0, 7)) {
		t.Fatal("future round accuracy must be NaN")
	}
}

func TestAdaptiveAfterRoundGapsFilledWithNaN(t *testing.T) {
	sel, _ := buildAdaptive(t, AdaptiveConfig{ClientsPerRound: 5, Interval: 4})
	// Record round 7 without round 3: rounds 0-6 must read as NaN.
	sel.AfterRound(7, func(d *dataset.Dataset) float64 { return 0.7 })
	for r := 0; r < 7; r++ {
		if !math.IsNaN(sel.tierAccuracy(0, r)) {
			t.Fatalf("round %d accuracy = %v, want NaN", r, sel.tierAccuracy(0, r))
		}
	}
	if sel.tierAccuracy(0, 7) != 0.7 {
		t.Fatalf("round 7 accuracy = %v", sel.tierAccuracy(0, 7))
	}
}

// Algorithm 2 reads A_t^r only at rounds r ≡ Interval-1 (mod Interval), so
// AfterRound evaluates only those (and round 0). Against a reference that
// records every round, probabilities, credits and picks are identical per
// round, and eval runs only on those rounds.
func TestAdaptiveEvaluatesOnlyReadRounds(t *testing.T) {
	const I = 4
	cfg := AdaptiveConfig{ClientsPerRound: 5, Interval: I, Credits: 2, Temperature: 2}
	sel, tiers := buildAdaptive(t, cfg)
	ref, _ := buildAdaptive(t, cfg)
	// Every tier's accuracy falls a little each round, so the current tier
	// stalls at every check and ChangeProbs runs on the latest accuracies.
	evalFor := func(s *AdaptiveSelector, r int, calls *int) func(*dataset.Dataset) float64 {
		return func(d *dataset.Dataset) float64 {
			*calls++
			for ti, td := range s.tierTest {
				if td == d {
					return 0.9 - 0.1*float64(ti) - 0.01*float64(r)
				}
			}
			t.Fatal("eval got a dataset that is no tier's test set")
			return 0
		}
	}
	selRNG, refRNG := rand.New(rand.NewSource(40)), rand.New(rand.NewSource(40))
	uniform := ref.alg2.probs
	changed := false
	for r := 0; r <= 3*I; r++ {
		got, want := sel.Select(r, selRNG), ref.Select(r, refRNG)
		if !slices.Equal(got, want) {
			t.Fatalf("round %d picks %v, reference %v", r, got, want)
		}
		if p, q := sel.alg2.probs, ref.alg2.probs; !slices.Equal(p, q) {
			t.Fatalf("round %d probabilities %v, reference %v", r, p, q)
		}
		if c, d := sel.alg2.credits, ref.alg2.credits; !slices.Equal(c, d) {
			t.Fatalf("round %d credits %v, reference %v", r, c, d)
		}
		changed = changed || !slices.Equal(ref.alg2.probs, uniform)
		if r == 3*I {
			break
		}
		calls, refCalls := 0, 0
		sel.AfterRound(r, evalFor(sel, r, &calls))
		// The reference records every round, as AfterRound did before.
		refEval := evalFor(ref, r, &refCalls)
		for ti := range ref.accHist {
			for len(ref.accHist[ti]) < r {
				ref.accHist[ti] = append(ref.accHist[ti], math.NaN())
			}
			ref.accHist[ti] = append(ref.accHist[ti], refEval(ref.tierTest[ti]))
		}
		wantCalls := 0
		if r == 0 || (r+1)%I == 0 {
			wantCalls = len(tiers)
		}
		if calls != wantCalls {
			t.Fatalf("round %d: eval called %d times, want %d", r, calls, wantCalls)
		}
	}
	if !changed {
		t.Fatal("probabilities never left uniform: the comparison proves nothing")
	}
	if sel.FallbackRounds() != ref.FallbackRounds() || sel.FallbackRounds() == 0 {
		t.Fatalf("fallback rounds %d, reference %d (want equal and > 0)", sel.FallbackRounds(), ref.FallbackRounds())
	}
}

func TestAdaptiveChangeProbsAllPerfect(t *testing.T) {
	sel, tiers := buildAdaptive(t, AdaptiveConfig{ClientsPerRound: 5})
	for t2 := range sel.accHist {
		sel.accHist[t2] = []float64{1.0}
	}
	probs := changeProbs(sel.accuracies(0), sel.alg2.temperature)
	for _, p := range probs {
		if math.Abs(p-1/float64(len(tiers))) > 1e-12 {
			t.Fatalf("all-perfect tiers should give uniform probs: %v", probs)
		}
	}
}

func TestAdaptiveChangeProbsUnevaluatedTreatedAsStruggling(t *testing.T) {
	sel, _ := buildAdaptive(t, AdaptiveConfig{ClientsPerRound: 5, Temperature: 1})
	sel.accHist[0] = []float64{0.9}
	// Other tiers unevaluated → gap 1.0 → highest probability.
	probs := changeProbs(sel.accuracies(0), sel.alg2.temperature)
	if probs[0] >= probs[1] {
		t.Fatalf("evaluated tier should rank below unevaluated: %v", probs)
	}
}

func TestAdaptiveProbUpdateTriggersOnStall(t *testing.T) {
	sel, _ := buildAdaptive(t, AdaptiveConfig{ClientsPerRound: 5, Interval: 2, Temperature: 2})
	rng := rand.New(rand.NewSource(30))
	// Rounds 0..3 with flat accuracies → at round 4 (r%I==0, r>=I) the
	// stall check fires and probabilities become skewed by accuracy.
	accs := []float64{0.9, 0.8, 0.7, 0.6, 0.2}
	for r := 0; r < 4; r++ {
		sel.Select(r, rng)
		for ti := range sel.accHist {
			sel.accHist[ti] = append(sel.accHist[ti], accs[ti])
		}
	}
	before := sel.alg2.probs
	sel.Select(4, rng)
	after := sel.alg2.probs
	changed := false
	for i := range before {
		if before[i] != after[i] {
			changed = true
		}
	}
	if !changed {
		t.Fatal("stalled accuracy did not trigger ChangeProbs")
	}
	if after[4] <= after[0] {
		t.Fatalf("worst tier not boosted: %v", after)
	}
}

func TestStaticSelectorUndersizedTier(t *testing.T) {
	// Tier smaller than |C|: all members returned, no panic, no dupes.
	tiers := []Tier{{ID: 0, Members: []int{3, 7}, MeanLatency: 1}}
	sel := NewStaticSelector(tiers, StaticPolicy{Name: "one", Probs: []float64{1}}, 5)
	got := sel.Select(0, rand.New(rand.NewSource(1)))
	if len(got) != 2 {
		t.Fatalf("selected %v", got)
	}
}

func TestSelectorsImplementInterfaces(t *testing.T) {
	var _ flcore.Selector = (*AdaptiveSelector)(nil)
	var _ flcore.RoundObserver = (*AdaptiveSelector)(nil)
	var _ flcore.Selector = (*StaticSelector)(nil)
	var _ flcore.Selector = (*DeadlineSelector)(nil)
}
