package flnet

import (
	"fmt"

	"repro/internal/flcore"
	"repro/internal/secagg"
)

// Secure aggregation over the wire (reference [5] of the paper — the
// reason cross-device FL stays synchronous). In secure mode the aggregator
// announces the round's full participant cohort and mask scale in the
// Train message; each worker masks its sample-weighted update with the
// pairwise masks of internal/secagg before sending, and the server can
// only recover the cohort's *sum*. A fixed cohort is required — straggler
// discard would leave masks uncancelled — so secure rounds wait for every
// participant (the trade-off the real protocol resolves with secret-shared
// mask recovery).

// SecureRoundSeed derives the public per-round mask seed. In the real
// protocol pairwise seeds come from key agreement; here the seed is public
// and only the pair identities personalize it (see secagg).
func SecureRoundSeed(base int64, round int) int64 {
	return base ^ int64((uint64(round)+1)*0x9E3779B97F4A7C15)
}

// RunSecureRound drives one synchronous round with pairwise-masked
// updates: all chosen workers must respond; the result is the FedAvg of
// their true updates, which the server computes without observing any
// individual update.
func (a *Aggregator) RunSecureRound(round int, chosen []int, weights []float64, maskScale float64) ([]float64, error) {
	// Secure rounds need the full cohort: every reachable member is
	// announced as a participant, and Aggregate refuses a round in which one
	// of them did not answer.
	cr := &cohortRound{round: round, cohort: chosen, target: len(chosen), weights: weights, secure: true, maskScale: maskScale}
	if a.fan.gather(cr) == roundNoCohort {
		return nil, fmt.Errorf("flnet: secure round %d: no reachable workers", round)
	}
	defer a.fan.recycle(cr.updates...)
	subs := make([]secagg.Submission, len(cr.updates))
	for i, u := range cr.updates {
		subs[i] = secagg.Submission{ClientID: u.ClientID, Masked: u.Weights, NumSamples: u.NumSamples}
	}
	avg, err := secagg.Aggregate(subs, cr.live)
	if err != nil {
		return nil, fmt.Errorf("flnet: secure round %d: %w", round, err)
	}
	return avg, nil
}

// maskedTrainResult applies worker-side masking when the Train message
// carries a participant cohort.
func maskedTrainResult(t *Train, clientID int, w []float64, n int) []float64 {
	if len(t.Participants) == 0 {
		return w
	}
	sub := secagg.MaskUpdate(
		flcore.Update{ClientID: clientID, Weights: w, NumSamples: n},
		t.Participants,
		SecureRoundSeed(0, t.Round),
		t.MaskScale,
	)
	return sub.Masked
}
