package tiering

import (
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/flcore"
)

// TestSelectorDrivesManagerFromSyncRounds plays the synchronous engine's
// part: Select, then ObserveLatencies, round after round, with client 0
// (fast at profiling) answering 40x slower from the start.
func TestSelectorDrivesManagerFromSyncRounds(t *testing.T) {
	const retierEvery = 4
	policy := core.StaticPolicy{Name: "fast-leaning", Probs: []float64{0.6, 0.2, 0.2}}
	run := func() (picks [][]int, m *Manager) {
		m = newTestManager(t, Config{NumTiers: 3, RetierEvery: retierEvery, EWMABeta: 1, ClientsPerRound: 2, Seed: 7}, profile(12))
		sel := &Selector{Manager: m, Policy: policy}
		for r := 0; r <= retierEvery; r++ {
			rng := rand.New(rand.NewSource(int64(100 + r)))
			got := sel.Select(r, rng)
			home, _ := tierOf(m, got[0])
			for _, id := range got {
				if tier, ok := tierOf(m, id); !ok || tier != home {
					t.Fatalf("round %d: selected %v, but %d is not a current member of tier %d", r, got, id, home)
				}
			}
			if r < retierEvery && m.Retiers() != 0 {
				t.Fatalf("round %d: %d rebuilds before the RetierEvery round", r, m.Retiers())
			}
			sel.ObserveLatencies(r, []flcore.Update{{ClientID: 0, Latency: 40}})
			picks = append(picks, got)
		}
		return picks, m
	}
	picks, m := run()
	if v, ok := m.EWMA(0); !ok || v != 40 {
		t.Fatalf("EWMA(0) = %v, %v; the observed latency never reached the Manager", v, ok)
	}
	if m.Retiers() != 1 {
		t.Fatalf("rebuilds at round %d = %d, want 1", retierEvery, m.Retiers())
	}
	if tier, _ := tierOf(m, 0); tier != 2 {
		t.Fatalf("drifted client 0 in tier %d after the rebuild, want the slowest", tier)
	}
	if again, _ := run(); !reflect.DeepEqual(picks, again) {
		t.Fatalf("same seed selected differently:\n%v\n%v", picks, again)
	}
}
