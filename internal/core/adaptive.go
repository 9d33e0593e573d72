package core

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/dataset"
	"repro/internal/flcore"
)

// AdaptiveState is the probability-and-credit state of TiFL's adaptive tier
// selection (Algorithm 2), the one copy behind both the synchronous
// AdaptiveSelector (Draw picks a round's tier) and the tiered-async
// tiering.Manager (CohortSize boosts a tier's cohort): per-tier selection
// probabilities, the remaining per-tier credits Credits_t, and the
// ChangeProbs temperature.
type AdaptiveState struct {
	probs       []float64
	credits     []int
	temperature float64
	// fallbacks counts draws made with every tier's credits exhausted.
	fallbacks int
}

// NewAdaptiveState starts Algorithm 2 over n tiers: equal probabilities
// (line 1) and credits per tier, ≤ 0 meaning unlimited. temperature ≤ 0
// defaults to 2.
func NewAdaptiveState(n, credits int, temperature float64) *AdaptiveState {
	if temperature <= 0 {
		temperature = 2
	}
	if credits <= 0 {
		credits = math.MaxInt
	}
	s := &AdaptiveState{probs: make([]float64, n), credits: make([]int, n), temperature: temperature}
	for t := range s.probs {
		s.probs[t] = 1 / float64(n)
		s.credits[t] = credits
	}
	return s
}

// Reweight sets the probabilities from per-tier accuracies (index = tier,
// NaN for unevaluated tiers) by the ChangeProbs rule (line 5).
func (s *AdaptiveState) Reweight(accs []float64) {
	s.probs = changeProbs(accs, s.temperature)
}

// Draw picks a tier among those with credits left, by their renormalized
// probabilities, and spends one of its credits (lines 8–14). With every
// tier's credits exhausted the paper's loop would spin forever; Draw falls
// back to a uniform pick over all tiers so training can finish, and counts it.
func (s *AdaptiveState) Draw(rng *rand.Rand) int {
	masked := make([]float64, len(s.probs))
	total := 0.0
	for i, p := range s.probs {
		if s.credits[i] > 0 {
			masked[i] = p
			total += p
		}
	}
	if total <= 0 {
		s.fallbacks++
		return rng.Intn(len(s.probs))
	}
	for i := range masked {
		masked[i] /= total
	}
	tier := PickTier(masked, rng)
	s.spend(tier)
	return tier
}

// CohortSize is the tiered-async reading of Algorithm 2: tier's cohort of
// want is scaled by p_t·n (the uniform-relative boost), clamped to
// [1, 2·want] and to the tier's members. A size above want is a boosted
// round and spends one credit; a tier out of credits stays at want.
func (s *AdaptiveState) CohortSize(tier, want, members int) int {
	boost := s.probs[tier] * float64(len(s.probs))
	size := min(max(int(math.Round(float64(want)*boost)), 1), 2*want, members)
	if size > want {
		if s.credits[tier] <= 0 {
			return want
		}
		s.spend(tier)
	}
	return size
}

func (s *AdaptiveState) spend(tier int) {
	if s.credits[tier] != math.MaxInt {
		s.credits[tier]--
	}
}

// Snapshot returns copies of the probabilities and remaining credits.
func (s *AdaptiveState) Snapshot() (probs []float64, credits []int) {
	return append([]float64(nil), s.probs...), append([]int(nil), s.credits...)
}

// Restore replaces the probabilities and credits with a snapshot's, which
// comes off disk: both vectors must cover every tier, the probabilities be
// a distribution and no credit negative. Nothing changes on an error.
func (s *AdaptiveState) Restore(probs []float64, credits []int) error {
	if len(probs) != len(s.probs) || len(credits) != len(s.probs) {
		return fmt.Errorf("core: %d probabilities and %d credits for %d tiers", len(probs), len(credits), len(s.probs))
	}
	sum := 0.0
	for t, p := range probs {
		if !(p >= 0) || math.IsInf(p, 0) {
			return fmt.Errorf("core: probability %v for tier %d", p, t)
		}
		if credits[t] < 0 {
			return fmt.Errorf("core: %d credits for tier %d", credits[t], t)
		}
		sum += p
	}
	if math.Abs(sum-1) > 1e-9 {
		return fmt.Errorf("core: probabilities sum to %v, not 1", sum)
	}
	s.probs, s.credits = append([]float64(nil), probs...), append([]int(nil), credits...)
	return nil
}

// changeProbs is the ChangeProbs function of Algorithm 2. The paper leaves
// the exact form open beyond "lower accuracy tiers get higher probabilities
// to be selected"; we use p_t ∝ (1 - A_t)^temperature, which is smooth,
// order-preserving, and reduces to uniform when tiers are equally accurate.
// NaN accuracies (unevaluated tiers) are treated as struggling (accuracy 0).
func changeProbs(accs []float64, temperature float64) []float64 {
	n := len(accs)
	out := make([]float64, n)
	total := 0.0
	for t, acc := range accs {
		if math.IsNaN(acc) {
			acc = 0 // unevaluated tiers are treated as struggling
		}
		gap := 1 - acc
		if gap < 0 {
			gap = 0
		}
		out[t] = math.Pow(gap, temperature)
		total += out[t]
	}
	if total <= 0 {
		for t := range out {
			out[t] = 1 / float64(n)
		}
		return out
	}
	for t := range out {
		out[t] /= total
	}
	return out
}

// AdaptiveConfig parameterizes Algorithm 2.
type AdaptiveConfig struct {
	ClientsPerRound int
	// Interval is I: every I rounds the selection probabilities are
	// reconsidered.
	Interval int
	// Credits is the per-tier selection budget Credits_t; 0 or negative
	// means unlimited (credits never bind).
	Credits int
	// Temperature shapes ChangeProbs: probabilities are proportional to
	// (1 - accuracy)^Temperature, so larger values boost struggling tiers
	// more sharply. 0 defaults to 2.
	Temperature float64
	// TestPerTier caps each tier's evaluation set size (0 = unlimited).
	TestPerTier int
	Seed        int64
}

// AdaptiveSelector implements TiFL's adaptive tier selection (Algorithm 2):
// it tracks per-tier test accuracy A_t^r on the rounds it reads, re-weights tier
// probabilities every Interval rounds when the current tier's accuracy
// stalls (lower-accuracy tiers get picked more), and enforces per-tier
// Credits so slow tiers cannot dominate training time.
type AdaptiveSelector struct {
	Tiers []Tier
	cfg   AdaptiveConfig

	alg2        *AdaptiveState
	currentTier int
	// accHist[t][r] is tier t's test accuracy after round r; NaN when a
	// round was not evaluated.
	accHist  [][]float64
	tierTest []*dataset.Dataset
}

// NewAdaptiveSelector builds the adaptive scheduler over profiled tiers.
// clients supplies the local test shards pooled into per-tier evaluation
// sets (flcore.TierTestPools); every tier needs some.
func NewAdaptiveSelector(tiers []Tier, clients []*flcore.Client, cfg AdaptiveConfig) *AdaptiveSelector {
	if cfg.Interval <= 0 {
		cfg.Interval = 20
	}
	if cfg.ClientsPerRound <= 0 {
		panic("core: AdaptiveConfig.ClientsPerRound must be positive")
	}
	if len(tiers) == 0 {
		panic("core: no tiers")
	}
	tierTest := flcore.TierTestPools(TierMembers(tiers), flcore.NewEagerClients(clients), cfg.TestPerTier, cfg.Seed)
	for t, d := range tierTest {
		if d == nil {
			panic(fmt.Sprintf("core: tier %d has no client test data", t))
		}
	}
	return &AdaptiveSelector{
		Tiers:    tiers,
		cfg:      cfg,
		alg2:     NewAdaptiveState(len(tiers), cfg.Credits, cfg.Temperature),
		accHist:  make([][]float64, len(tiers)),
		tierTest: tierTest,
	}
}

// FallbackRounds counts rounds in which every tier's credits were exhausted
// and the selector fell back to ignoring credits (see AdaptiveState.Draw).
func (a *AdaptiveSelector) FallbackRounds() int { return a.alg2.fallbacks }

// tierAccuracy returns tier t's recorded accuracy after round r, or NaN.
func (a *AdaptiveSelector) tierAccuracy(t, r int) float64 {
	if r < 0 || r >= len(a.accHist[t]) {
		return math.NaN()
	}
	return a.accHist[t][r]
}

// accuracies returns every tier's recorded accuracy after round r.
func (a *AdaptiveSelector) accuracies(r int) []float64 {
	accs := make([]float64, len(a.Tiers))
	for t := range accs {
		accs[t] = a.tierAccuracy(t, r)
	}
	return accs
}

// Select implements flcore.Selector, lines 2–16 of Algorithm 2. The
// paper's listing decrements Credits twice (lines 11 and 16), which would
// double-charge every selection; we read that as an editing artifact and
// decrement once per selection.
func (a *AdaptiveSelector) Select(r int, rng *rand.Rand) []int {
	I := a.cfg.Interval
	if r%I == 0 && r >= I {
		cur, prev := a.tierAccuracy(a.currentTier, r-1), a.tierAccuracy(a.currentTier, r-1-I)
		// Line 4: if the current tier's accuracy did not improve over the
		// last interval, recompute the probabilities from the latest
		// per-tier accuracies.
		if !math.IsNaN(cur) && !math.IsNaN(prev) && cur <= prev {
			a.alg2.Reweight(a.accuracies(r - 1))
		}
	}
	a.currentTier = a.alg2.Draw(rng)
	return sampleClients(a.Tiers[a.currentTier].Members, a.cfg.ClientsPerRound, rng)
}

// AfterRound implements flcore.RoundObserver, lines 22–24 of Algorithm 2:
// evaluate the freshly aggregated global model on every tier's test data
// and record A_t^r. Select reads A_t^r only for rounds with
// (r+1) % Interval == 0, so only those rounds and round 0 are evaluated;
// eval is not called on the others, which read as NaN. Selection is
// unchanged by the skip.
func (a *AdaptiveSelector) AfterRound(r int, eval func(d *dataset.Dataset) float64) {
	// Round 0 is not read by Select; it is evaluated because the frozen
	// benchmark probe (timeOp) sizes its batches from its first call.
	if r != 0 && (r+1)%a.cfg.Interval != 0 {
		return
	}
	for t := range a.Tiers {
		for len(a.accHist[t]) < r {
			a.accHist[t] = append(a.accHist[t], math.NaN())
		}
		a.accHist[t] = append(a.accHist[t], eval(a.tierTest[t]))
	}
}
