package core

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/dataset"
	"repro/internal/flcore"
)

// TierTestData assembles each tier's evaluation set (TestData_t in
// Algorithm 2) by pooling the member clients' local test shards, capped at
// maxPerTier samples (0 = unlimited). Only accuracy numbers computed on
// these shards ever reach the scheduler, so the privacy posture matches the
// paper: the aggregator never observes raw data or class distributions.
func TierTestData(tiers []Tier, clients []*flcore.Client, maxPerTier int, seed int64) []*dataset.Dataset {
	out := make([]*dataset.Dataset, len(tiers))
	for ti, t := range tiers {
		var parts []*dataset.Dataset
		for _, ci := range t.Members {
			if c := clients[ci]; c.Test != nil && c.Test.Len() > 0 {
				parts = append(parts, c.Test)
			}
		}
		if len(parts) == 0 {
			panic(fmt.Sprintf("core: tier %d has no client test data", ti))
		}
		pooled := dataset.Concat(parts...)
		if maxPerTier > 0 && pooled.Len() > maxPerTier {
			rng := rand.New(rand.NewSource(seed + int64(ti)))
			pooled = pooled.Subset(rng.Perm(pooled.Len())[:maxPerTier])
		}
		out[ti] = pooled
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

func (c AdaptiveConfig) withDefaults() AdaptiveConfig {
	if c.Interval <= 0 {
		c.Interval = 20
	}
	if c.Temperature <= 0 {
		c.Temperature = 2
	}
	return c
}

// AdaptiveSelector implements TiFL's adaptive tier selection (Algorithm 2):
// it tracks per-tier test accuracy A_t^r after every round, re-weights tier
// probabilities every Interval rounds when the current tier's accuracy
// stalls (lower-accuracy tiers get picked more), and enforces per-tier
// Credits so slow tiers cannot dominate training time.
type AdaptiveSelector struct {
	Tiers []Tier
	cfg   AdaptiveConfig

	probs       []float64
	credits     []int
	currentTier int
	// accHist[t][r] is tier t's test accuracy after round r; NaN when a
	// round was not evaluated yet.
	accHist  [][]float64
	tierTest []*dataset.Dataset

	// FallbackRounds counts rounds in which every tier's credits were
	// exhausted and the selector fell back to ignoring credits (the paper's
	// Algorithm 2 would spin forever in that state; we degrade gracefully
	// and surface the count).
	FallbackRounds int
}

// NewAdaptiveSelector builds the adaptive scheduler over profiled tiers.
// clients supplies the local test shards pooled into per-tier evaluation
// sets.
func NewAdaptiveSelector(tiers []Tier, clients []*flcore.Client, cfg AdaptiveConfig) *AdaptiveSelector {
	cfg = cfg.withDefaults()
	if cfg.ClientsPerRound <= 0 {
		panic("core: AdaptiveConfig.ClientsPerRound must be positive")
	}
	n := len(tiers)
	if n == 0 {
		panic("core: no tiers")
	}
	probs := make([]float64, n)
	credits := make([]int, n)
	for i := range probs {
		probs[i] = 1 / float64(n) // line 1: equal initial probability
		if cfg.Credits > 0 {
			credits[i] = cfg.Credits
		} else {
			credits[i] = math.MaxInt
		}
	}
	return &AdaptiveSelector{
		Tiers:    tiers,
		cfg:      cfg,
		probs:    probs,
		credits:  credits,
		accHist:  make([][]float64, n),
		tierTest: TierTestData(tiers, clients, cfg.TestPerTier, cfg.Seed),
	}
}

// Probabilities returns a copy of the current tier-selection probabilities.
func (a *AdaptiveSelector) Probabilities() []float64 {
	return append([]float64(nil), a.probs...)
}

// CreditsRemaining returns a copy of the per-tier credit counters.
func (a *AdaptiveSelector) CreditsRemaining() []int {
	return append([]int(nil), a.credits...)
}

// TierAccuracy returns tier t's recorded accuracy after round r, or NaN.
func (a *AdaptiveSelector) TierAccuracy(t, r int) float64 {
	if r < 0 || r >= len(a.accHist[t]) {
		return math.NaN()
	}
	return a.accHist[t][r]
}

// Select implements flcore.Selector, lines 2–16 of Algorithm 2. The
// paper's listing decrements Credits twice (lines 11 and 16), which would
// double-charge every selection; we read that as an editing artifact and
// decrement once per selection.
func (a *AdaptiveSelector) Select(r int, rng *rand.Rand) []int {
	I := a.cfg.Interval
	if r%I == 0 && r >= I {
		cur, prev := a.TierAccuracy(a.currentTier, r-1), a.TierAccuracy(a.currentTier, r-1-I)
		// Line 4: if the current tier's accuracy did not improve over the
		// last interval, recompute the probabilities from the latest
		// per-tier accuracies.
		if !math.IsNaN(cur) && !math.IsNaN(prev) && cur <= prev {
			a.probs = a.changeProbs(r - 1)
		}
	}
	// Lines 8–14: draw a tier with remaining credits.
	masked := make([]float64, len(a.probs))
	total := 0.0
	for i, p := range a.probs {
		if a.credits[i] > 0 {
			masked[i] = p
			total += p
		}
	}
	var tier int
	if total <= 0 {
		// All selectable mass exhausted: fall back to uniform over all
		// tiers so training can finish.
		a.FallbackRounds++
		tier = rng.Intn(len(a.Tiers))
	} else {
		for i := range masked {
			masked[i] /= total
		}
		tier = PickTier(masked, rng)
		if a.credits[tier] != math.MaxInt {
			a.credits[tier]--
		}
	}
	a.currentTier = tier
	return sampleClients(a.Tiers[tier].Members, a.cfg.ClientsPerRound, rng)
}

// AfterRound implements flcore.RoundObserver, lines 22–24 of Algorithm 2:
// evaluate the freshly aggregated global model on every tier's test data
// and record A_t^r.
func (a *AdaptiveSelector) AfterRound(r int, eval func(d *dataset.Dataset) float64) {
	for t := range a.Tiers {
		for len(a.accHist[t]) < r {
			a.accHist[t] = append(a.accHist[t], math.NaN())
		}
		a.accHist[t] = append(a.accHist[t], eval(a.tierTest[t]))
	}
}

// AccuracyHistory returns each tier's recorded test-accuracy trajectory
// (index = round; NaN for unevaluated rounds) — the raw data behind TiFL's
// selection decisions, for analysis and plotting.
func (a *AdaptiveSelector) AccuracyHistory() [][]float64 {
	out := make([][]float64, len(a.accHist))
	for t, h := range a.accHist {
		out[t] = append([]float64(nil), h...)
	}
	return out
}

// changeProbs is the ChangeProbs function of Algorithm 2, evaluated on the
// accuracies recorded after the given round.
func (a *AdaptiveSelector) changeProbs(round int) []float64 {
	accs := make([]float64, len(a.Tiers))
	for t := range a.Tiers {
		accs[t] = a.TierAccuracy(t, round)
	}
	return AdaptiveProbs(accs, a.cfg.Temperature)
}

// AdaptiveProbs is THE ChangeProbs rule of Algorithm 2, shared by the
// synchronous AdaptiveSelector and the live tiering Manager
// (internal/tiering). The paper leaves the exact form open beyond "lower
// accuracy tiers get higher probabilities to be selected"; we use
// p_t ∝ (1 - A_t)^temperature, which is smooth, order-preserving, and
// reduces to uniform when tiers are equally accurate. NaN accuracies
// (unevaluated tiers) are treated as struggling (accuracy 0); temperature
// ≤ 0 defaults to 2.
func AdaptiveProbs(accs []float64, temperature float64) []float64 {
	if temperature <= 0 {
		temperature = 2
	}
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
