package core

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/dataset"
	"repro/internal/flcore"
)

func TestTierTestDataPooling(t *testing.T) {
	clients := makeClients(t, 50)
	res := Profile(clients, testLM, DefaultProfiler)
	tiers := BuildTiers(res.Latency, 5, Quantile)
	data := TierTestData(tiers, clients, 0, 1)
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

func TestTierTestDataCap(t *testing.T) {
	clients := makeClients(t, 50)
	res := Profile(clients, testLM, DefaultProfiler)
	tiers := BuildTiers(res.Latency, 5, Quantile)
	data := TierTestData(tiers, clients, 25, 1)
	for ti, d := range data {
		if d.Len() > 25 {
			t.Fatalf("tier %d has %d samples, cap 25", ti, d.Len())
		}
	}
}

func TestTierTestDataNoTestShardsPanics(t *testing.T) {
	clients := makeClients(t, 10)
	for _, c := range clients {
		c.Test = nil
	}
	tiers := []Tier{{ID: 0, Members: []int{0, 1}}}
	mustPanic(t, func() { TierTestData(tiers, clients, 0, 1) })
}

func TestAdaptiveAfterRoundRecordsAllTiers(t *testing.T) {
	sel, tiers := buildAdaptive(t, AdaptiveConfig{ClientsPerRound: 5})
	calls := 0
	sel.AfterRound(0, func(d *dataset.Dataset) float64 {
		calls++
		return 0.5
	})
	if calls != len(tiers) {
		t.Fatalf("eval called %d times, want %d", calls, len(tiers))
	}
	for ti := range tiers {
		if got := sel.TierAccuracy(ti, 0); got != 0.5 {
			t.Fatalf("tier %d accuracy = %v", ti, got)
		}
	}
	if !math.IsNaN(sel.TierAccuracy(0, 5)) {
		t.Fatal("future round accuracy must be NaN")
	}
}

func TestAdaptiveAfterRoundGapsFilledWithNaN(t *testing.T) {
	sel, _ := buildAdaptive(t, AdaptiveConfig{ClientsPerRound: 5})
	// Record round 3 without rounds 0-2: they must read as NaN.
	sel.AfterRound(3, func(d *dataset.Dataset) float64 { return 0.7 })
	if !math.IsNaN(sel.TierAccuracy(0, 1)) {
		t.Fatal("missing round must be NaN")
	}
	if sel.TierAccuracy(0, 3) != 0.7 {
		t.Fatalf("round 3 accuracy = %v", sel.TierAccuracy(0, 3))
	}
}

func TestAdaptiveChangeProbsAllPerfect(t *testing.T) {
	sel, tiers := buildAdaptive(t, AdaptiveConfig{ClientsPerRound: 5})
	for t2 := range sel.accHist {
		sel.accHist[t2] = []float64{1.0}
	}
	probs := sel.changeProbs(0)
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
	probs := sel.changeProbs(0)
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
	before := sel.Probabilities()
	sel.Select(4, rng)
	after := sel.Probabilities()
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

func TestAccuracyHistoryIsACopy(t *testing.T) {
	sel, _ := buildAdaptive(t, AdaptiveConfig{ClientsPerRound: 5})
	sel.AfterRound(0, func(d *dataset.Dataset) float64 { return 0.42 })
	h := sel.AccuracyHistory()
	if len(h) != len(sel.Tiers) || h[0][0] != 0.42 {
		t.Fatalf("history = %v", h)
	}
	h[0][0] = 99
	if sel.TierAccuracy(0, 0) != 0.42 {
		t.Fatal("AccuracyHistory must return a copy")
	}
}

func TestSelectorsImplementInterfaces(t *testing.T) {
	var _ flcore.Selector = (*AdaptiveSelector)(nil)
	var _ flcore.RoundObserver = (*AdaptiveSelector)(nil)
	var _ flcore.Selector = (*StaticSelector)(nil)
	var _ flcore.Selector = (*DeadlineSelector)(nil)
}
