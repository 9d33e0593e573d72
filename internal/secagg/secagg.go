// Package secagg simulates the pairwise-masking core of practical secure
// aggregation (Bonawitz et al., CCS 2017 — reference [5] of the TiFL
// paper, and the paper's stated reason cross-device FL stays synchronous).
//
// Every pair of round participants (i, j) derives a shared mask vector from
// a common seed; the lower-ID client adds it and the higher-ID client
// subtracts it, so individual submissions look random to the server while
// the *sum* of submissions equals the sum of the true values exactly.
// Clients submit their sample-weighted weight vectors (n_c·w_c) plus n_c in
// the clear, so the server recovers the FedAvg numerator and denominator
// without ever seeing a single client's weights.
//
// This is the honest-but-curious core only: the full protocol's key
// agreement, secret sharing for dropout recovery, and signatures are out of
// scope (docs/ARCHITECTURE.md), but the aggregation algebra — the part TiFL
// must remain compatible with — is real and tested.
package secagg

import (
	"fmt"
	"math/rand"
	"sort"

	"repro/internal/flcore"
)

// Submission is one client's masked contribution.
type Submission struct {
	ClientID   int
	Masked     []float64 // n_c·w_c + Σ pairwise masks
	NumSamples int
}

// pairSeed derives the shared seed for the (i, j) mask from the round seed;
// both parties compute the same value independently.
func pairSeed(roundSeed int64, i, j int) int64 {
	if i > j {
		i, j = j, i
	}
	z := uint64(roundSeed) ^ (uint64(i+1) * 0x9E3779B97F4A7C15) ^ (uint64(j+1) * 0xBF58476D1CE4E5B9)
	z = (z ^ (z >> 30)) * 0x94D049BB133111EB
	return int64(z)
}

// MaskUpdate produces client `id`'s masked submission for a round whose
// participants are `participants` (all IDs, including id). The mask scale
// only needs to be large enough to hide the signal; cancellation is exact
// regardless.
func MaskUpdate(u flcore.Update, participants []int, roundSeed int64, maskScale float64) Submission {
	masked := make([]float64, len(u.Weights))
	w := float64(u.NumSamples)
	for k, v := range u.Weights {
		masked[k] = w * v
	}
	for _, other := range participants {
		if other == u.ClientID {
			continue
		}
		rng := rand.New(rand.NewSource(pairSeed(roundSeed, u.ClientID, other)))
		sign := 1.0
		if u.ClientID > other {
			sign = -1
		}
		for k := range masked {
			masked[k] += sign * maskScale * rng.NormFloat64()
		}
	}
	return Submission{ClientID: u.ClientID, Masked: masked, NumSamples: u.NumSamples}
}

// Aggregate recovers the FedAvg average from a complete set of masked
// submissions. It errors if the submission set does not cover exactly the
// participants the masks were built for (a missing client leaves its
// pairwise masks uncancelled — the dropout problem the full protocol's
// secret sharing addresses).
func Aggregate(subs []Submission, participants []int) ([]float64, error) {
	if len(subs) == 0 {
		return nil, fmt.Errorf("secagg: no submissions")
	}
	got := make([]int, 0, len(subs))
	for _, s := range subs {
		got = append(got, s.ClientID)
	}
	sort.Ints(got)
	want := append([]int(nil), participants...)
	sort.Ints(want)
	if len(got) != len(want) {
		return nil, fmt.Errorf("secagg: %d submissions for %d participants (dropout breaks mask cancellation)", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			return nil, fmt.Errorf("secagg: submission set %v does not match participants %v", got, want)
		}
	}
	n := len(subs[0].Masked)
	sum := make([]float64, n)
	total := 0.0
	for _, s := range subs {
		if len(s.Masked) != n {
			return nil, fmt.Errorf("secagg: submission length %d != %d", len(s.Masked), n)
		}
		for k, v := range s.Masked {
			sum[k] += v
		}
		total += float64(s.NumSamples)
	}
	if total <= 0 {
		return nil, fmt.Errorf("secagg: zero total weight")
	}
	for k := range sum {
		sum[k] /= total
	}
	return sum, nil
}
