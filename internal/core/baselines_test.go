package core

import (
	"math/rand"
	"testing"
)

func TestDeadlineSelectorFilters(t *testing.T) {
	clients := makeClients(t, 50)
	res := Profile(clients, testLM, DefaultProfiler)
	// Deadline between the tier-2 and tier-5 latencies: slow clients never
	// get picked.
	sel := NewDeadlineSelector(res.Latency, 3.0, 5)
	if sel.Eligible() == 0 || sel.Eligible() == 50 {
		t.Fatalf("eligible = %d, expected a strict subset", sel.Eligible())
	}
	rng := rand.New(rand.NewSource(1))
	for r := 0; r < 100; r++ {
		for _, c := range sel.Select(r, rng) {
			if res.Latency[c] > 3.0 {
				t.Fatalf("selected client %d with latency %v beyond deadline", c, res.Latency[c])
			}
		}
	}
}

func TestDeadlineSelectorFallbackToFastest(t *testing.T) {
	lat := map[int]float64{0: 10, 1: 20, 2: 30, 3: 40}
	sel := NewDeadlineSelector(lat, 5, 2) // nobody fits
	if sel.Eligible() != 0 {
		t.Fatalf("eligible = %d", sel.Eligible())
	}
	rng := rand.New(rand.NewSource(2))
	picked := sel.Select(0, rng)
	for _, c := range picked {
		if c != 0 && c != 1 {
			t.Fatalf("fallback picked %v, want the two fastest", picked)
		}
	}
}

func TestDeadlineSelectorValidation(t *testing.T) {
	mustPanic(t, func() { NewDeadlineSelector(nil, 1, 1) })
	mustPanic(t, func() { NewDeadlineSelector(map[int]float64{0: 1}, 0, 1) })
	mustPanic(t, func() { NewDeadlineSelector(map[int]float64{0: 1}, 1, 0) })
}
