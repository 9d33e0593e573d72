package flnet

import (
	"testing"
	"time"

	"repro/internal/core"
)

func TestTiFLOverTCPEndToEnd(t *testing.T) {
	// Full pipeline: register workers with different speeds, profile over
	// the network, tier, then run rounds with a fast-leaning policy. Slow
	// workers must never be selected, so rounds complete quickly.
	agg, err := NewAggregator("127.0.0.1:0", AggregatorConfig{
		Rounds: 4, ClientsPerRound: 2, InitialWeights: []float64{0}, Seed: 11,
		RoundTimeout: 10 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer agg.Close()
	delays := []time.Duration{0, 0, 0, 250 * time.Millisecond, 250 * time.Millisecond, 250 * time.Millisecond}
	for id, d := range delays {
		go RunWorker(agg.Addr(), WorkerConfig{ //nolint:errcheck
			ClientID: id, NumSamples: 1, Train: echoTrain(1, 1, d),
		})
	}
	if err := agg.WaitForWorkers(len(delays), 5*time.Second); err != nil {
		t.Fatal(err)
	}
	lat, _, err := agg.ProfileWorkers(10 * time.Second)
	if err != nil {
		t.Fatal(err)
	}
	// Worker IDs are the selector's client indices: the tiers are built from
	// the latency map's keys.
	tiers := core.BuildTiers(lat, 2, core.Quantile)
	sel := core.NewStaticSelector(tiers, core.StaticPolicy{Name: "fast", Probs: []float64{1, 0}}, 2)
	fastTier := map[int]bool{}
	for _, id := range tiers[0].Members {
		fastTier[id] = true
	}
	for id := 0; id < 3; id++ {
		if !fastTier[id] {
			t.Fatalf("fast worker %d not in tier 1 (tiers: %+v)", id, tiers)
		}
	}
	start := time.Now()
	res, err := agg.Run(sel)
	if err != nil {
		t.Fatal(err)
	}
	// 4 rounds over only fast workers: well under the slow workers' delay
	// budget (4 rounds × 250ms would be 1s+).
	if time.Since(start) > 900*time.Millisecond {
		t.Fatalf("tiered rounds took %v; slow workers likely selected", time.Since(start))
	}
	if res.Weights[0] != 4 {
		t.Fatalf("weights = %v, want 4 after 4 rounds of +1", res.Weights)
	}
}
