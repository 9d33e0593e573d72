package flnet

import (
	"math"
	"testing"
	"time"

	"repro/internal/flcore"
	"repro/internal/nn"
)

func TestSecureRoundMatchesPlainFedAvg(t *testing.T) {
	init := []float64{1, 2, 3}
	agg, err := NewAggregator("127.0.0.1:0", AggregatorConfig{
		Rounds: 1, ClientsPerRound: 3, InitialWeights: init, Seed: 21,
		RoundTimeout: 10 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer agg.Close()
	deltas := []float64{1, -1, 2}
	samples := []int{2, 3, 5}
	for i := range deltas {
		go RunWorker(agg.Addr(), WorkerConfig{ //nolint:errcheck
			ClientID: i, NumSamples: samples[i], Train: echoTrain(deltas[i], samples[i], 0),
		})
	}
	if err := agg.WaitForWorkers(3, 5*time.Second); err != nil {
		t.Fatal(err)
	}
	got, err := agg.RunSecureRound(0, []int{0, 1, 2}, init, 100)
	if err != nil {
		t.Fatal(err)
	}
	var want []float64
	{
		var ups []flcore.Update
		for i := range deltas {
			w := make([]float64, len(init))
			for j := range w {
				w[j] = init[j] + deltas[i]
			}
			ups = append(ups, flcore.Update{ClientID: i, Weights: w, NumSamples: samples[i]})
		}
		want = flcore.FedAvg(ups)
	}
	for i := range want {
		if math.Abs(got[i]-want[i]) > 1e-9 {
			t.Fatalf("secure TCP aggregate %v != plain FedAvg %v", got, want)
		}
	}
	agg.FinishWorkers(1)
}

func TestSecureRoundIndividualUpdatesMasked(t *testing.T) {
	// Intercept what the server actually receives: individual submissions
	// must be far from the true weighted updates.
	init := make([]float64, 50)
	agg, err := NewAggregator("127.0.0.1:0", AggregatorConfig{
		Rounds: 1, ClientsPerRound: 2, InitialWeights: init, Seed: 22,
		RoundTimeout: 10 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer agg.Close()
	for i := 0; i < 2; i++ {
		go RunWorker(agg.Addr(), WorkerConfig{ //nolint:errcheck
			ClientID: i, NumSamples: 1, Train: echoTrain(0.5, 1, 0),
		})
	}
	if err := agg.WaitForWorkers(2, 5*time.Second); err != nil {
		t.Fatal(err)
	}
	// Send the secure Train ourselves and read raw submissions, each through
	// the waiter registered for its Seq.
	liveIDs := []int{0, 1}
	waiters := make([]chan *Envelope, len(liveIDs))
	for i, id := range liveIDs {
		w, seq := agg.liveWorker(id), int64(i+1)
		waiters[i] = w.addPending(seq)
		err := w.c.send(&Envelope{Type: MsgTrain, Train: &Train{
			Round: 0, Seq: seq, Raw: nn.EncodeWeights(init), Participants: liveIDs, MaskScale: 50,
		}})
		if err != nil {
			t.Fatal(err)
		}
	}
	for i, id := range liveIDs {
		var env *Envelope
		select {
		case env = <-waiters[i]:
		case <-time.After(5 * time.Second):
			t.Fatalf("no update from worker %d", id)
		}
		if env.Type != MsgUpdate {
			t.Fatalf("worker %d answered a secure round with message type %d", id, env.Type)
		}
		// True update is 0.5 everywhere (n=1); the masked one must differ
		// wildly.
		masked, err := nn.DecodeWeights(env.Update.Raw)
		if err != nil {
			t.Fatal(err)
		}
		dist := 0.0
		for _, v := range masked {
			d := v - 0.5
			dist += d * d
		}
		if math.Sqrt(dist) < 50 {
			t.Fatalf("worker %d's submission is barely masked (dist %v)", id, math.Sqrt(dist))
		}
	}
	agg.FinishWorkers(1)
}

func TestSecureRoundSeedVariesByRound(t *testing.T) {
	if SecureRoundSeed(0, 1) == SecureRoundSeed(0, 2) {
		t.Fatal("round seed must vary by round")
	}
}
