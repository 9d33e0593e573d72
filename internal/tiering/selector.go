package tiering

import (
	"math/rand"

	"repro/internal/core"
	"repro/internal/flcore"
)

// Selector runs the synchronous engine (flcore.Engine) on a live Manager:
// the paper's Section 4.2 online version under a fixed tier-probability
// policy. The round number plays the part of the global commit count, so
// the Manager's RetierEvery counts rounds here. Policy needs one
// probability per Manager tier.
type Selector struct {
	Manager *Manager
	Policy  core.StaticPolicy
}

// Select implements flcore.Selector: pass the rebuild point, draw a tier
// from Policy with the engine's round rng, and take that tier's cohort
// (the Manager's ClientsPerRound members) for round r.
func (s *Selector) Select(r int, rng *rand.Rand) []int {
	s.Manager.MaybeRetier(r)
	return s.Manager.Cohort(core.PickTier(s.Policy.Probs, rng), r, 0)
}

// ObserveLatencies implements flcore.LatencyObserver: every selected
// client's observed response latency is folded into its EWMA.
func (s *Selector) ObserveLatencies(r int, updates []flcore.Update) {
	for _, u := range updates {
		s.Manager.Observe(u.ClientID, u.Latency)
	}
}

var (
	_ flcore.Selector        = (*Selector)(nil)
	_ flcore.LatencyObserver = (*Selector)(nil)
)
