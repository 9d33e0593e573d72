package flnet

import (
	"fmt"

	"repro/internal/flcore"
	"repro/internal/nn"
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
	live := make([]*registered, 0, len(chosen))
	liveIDs := make([]int, 0, len(chosen))
	for _, id := range chosen {
		a.mu.Lock()
		w := a.workers[id]
		a.mu.Unlock()
		if w != nil {
			live = append(live, w)
			liveIDs = append(liveIDs, id)
		}
	}
	if len(live) == 0 {
		return nil, fmt.Errorf("flnet: secure round %d: no reachable workers", round)
	}
	raw := nn.EncodeWeights(weights)
	for _, w := range live {
		msg := &Envelope{Type: MsgTrain, Train: &Train{
			Round: round, Raw: raw,
			Participants: liveIDs, MaskScale: maskScale,
		}}
		if err := w.c.send(msg); err != nil {
			return nil, fmt.Errorf("flnet: secure round %d: worker %d unreachable mid-setup: %w", round, w.id, err)
		}
	}
	// Secure rounds need the full cohort: collect len(live) updates.
	// Workers always send masked updates dense (see WorkerConfig.Codec),
	// but collect still takes the broadcast weights for uniformity.
	updates := a.collect(live, len(live), round, weights)
	if len(updates) != len(live) {
		return nil, fmt.Errorf("flnet: secure round %d: %d of %d submissions (dropout breaks mask cancellation)", round, len(updates), len(live))
	}
	subs := make([]secagg.Submission, len(updates))
	for i, u := range updates {
		subs[i] = secagg.Submission{ClientID: u.ClientID, Masked: u.Weights, NumSamples: u.NumSamples}
	}
	return secagg.Aggregate(subs, liveIDs)
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
