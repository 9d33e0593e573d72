package core

import (
	"fmt"
	"math"
	"math/rand"
)

// StaticPolicy is a straw-man tier-selection policy (Section 4.3): a fixed
// probability of selecting each tier, summing to 1. Within the selected
// tier, |C| clients are drawn uniformly at random.
type StaticPolicy struct {
	Name  string
	Probs []float64
}

// Validate checks the probability vector sums to 1 within tolerance.
func (p StaticPolicy) Validate() error {
	sum := 0.0
	for _, v := range p.Probs {
		if v < 0 {
			return fmt.Errorf("core: policy %q has negative probability %v", p.Name, v)
		}
		sum += v
	}
	if math.Abs(sum-1) > 1e-9 {
		return fmt.Errorf("core: policy %q probabilities sum to %v", p.Name, sum)
	}
	return nil
}

// Table 1 of the paper: scheduling policy configurations. The five-tier
// policies apply to CIFAR-10 and FEMNIST; uniform/fast1–fast3 apply to
// MNIST and Fashion-MNIST. "vanilla" is not a tier policy (clients are
// drawn from the full pool) and is represented by flcore.RandomSelector.
var (
	PolicySlow    = StaticPolicy{Name: "slow", Probs: []float64{0, 0, 0, 0, 1}}
	PolicyUniform = StaticPolicy{Name: "uniform", Probs: []float64{0.2, 0.2, 0.2, 0.2, 0.2}}
	PolicyRandom  = StaticPolicy{Name: "random", Probs: []float64{0.7, 0.1, 0.1, 0.05, 0.05}}
	PolicyFast    = StaticPolicy{Name: "fast", Probs: []float64{1, 0, 0, 0, 0}}
	PolicyFast1   = StaticPolicy{Name: "fast1", Probs: []float64{0.225, 0.225, 0.225, 0.225, 0.1}}
	PolicyFast2   = StaticPolicy{Name: "fast2", Probs: []float64{0.2375, 0.2375, 0.2375, 0.2375, 0.05}}
	PolicyFast3   = StaticPolicy{Name: "fast3", Probs: []float64{0.25, 0.25, 0.25, 0.25, 0}}
)

// PoliciesCIFAR returns the Table 1 policies evaluated on CIFAR-10 and
// FEMNIST, in the paper's presentation order.
func PoliciesCIFAR() []StaticPolicy {
	return []StaticPolicy{PolicySlow, PolicyUniform, PolicyRandom, PolicyFast}
}

// PoliciesMNIST returns the Table 1 policies evaluated on MNIST and
// Fashion-MNIST.
func PoliciesMNIST() []StaticPolicy {
	return []StaticPolicy{PolicyUniform, PolicyFast1, PolicyFast2, PolicyFast3}
}

// StaticSelector implements the straw-man tier selection: each round draw a
// tier from the policy's fixed probabilities, then draw ClientsPerRound
// clients uniformly from that tier.
type StaticSelector struct {
	Tiers           []Tier
	Policy          StaticPolicy
	ClientsPerRound int
}

// NewStaticSelector validates and builds a static tier selector. The policy
// must provide one probability per tier.
func NewStaticSelector(tiers []Tier, policy StaticPolicy, clientsPerRound int) *StaticSelector {
	if err := policy.Validate(); err != nil {
		panic(err)
	}
	if len(policy.Probs) != len(tiers) {
		panic(fmt.Sprintf("core: policy %q has %d probabilities for %d tiers", policy.Name, len(policy.Probs), len(tiers)))
	}
	if clientsPerRound <= 0 {
		panic("core: ClientsPerRound must be positive")
	}
	return &StaticSelector{Tiers: tiers, Policy: policy, ClientsPerRound: clientsPerRound}
}

// Select implements flcore.Selector.
func (s *StaticSelector) Select(r int, rng *rand.Rand) []int {
	t := PickTier(s.Policy.Probs, rng)
	return sampleClients(s.Tiers[t].Members, s.ClientsPerRound, rng)
}

// ExpectedRoundLatency returns Σ_i L_tier_i · P_i, the per-round latency
// expectation underlying the estimation model (Eq. 6).
func (s *StaticSelector) ExpectedRoundLatency() float64 {
	sum := 0.0
	for i, t := range s.Tiers {
		sum += t.MeanLatency * s.Policy.Probs[i]
	}
	return sum
}
