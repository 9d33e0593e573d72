package secagg

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/flcore"
)

func randomUpdates(rng *rand.Rand, k, n int) []flcore.Update {
	ups := make([]flcore.Update, k)
	for i := range ups {
		w := make([]float64, n)
		for j := range w {
			w[j] = rng.NormFloat64()
		}
		ups[i] = flcore.Update{ClientID: i * 3, Weights: w, NumSamples: 1 + rng.Intn(50)}
	}
	return ups
}

// secureFedAvg masks every update and aggregates the masked submissions:
// one secure round, composed as flnet's secure round composes it.
func secureFedAvg(updates []flcore.Update, roundSeed int64, maskScale float64) ([]float64, error) {
	ids := make([]int, len(updates))
	for i, u := range updates {
		ids[i] = u.ClientID
	}
	subs := make([]Submission, len(updates))
	for i, u := range updates {
		subs[i] = MaskUpdate(u, ids, roundSeed, maskScale)
	}
	return Aggregate(subs, ids)
}

func TestSecureFedAvgMatchesPlain(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	ups := randomUpdates(rng, 5, 40)
	want := fedAvg(ups)
	got, err := secureFedAvg(ups, 42, 100)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if math.Abs(got[i]-want[i]) > 1e-9 {
			t.Fatalf("secure aggregate diverges at %d: %v vs %v", i, got[i], want[i])
		}
	}
}

// Property: mask cancellation is exact for any participant set and seed.
func TestMaskCancellationProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		k := 2 + rng.Intn(6)
		n := 1 + rng.Intn(30)
		ups := randomUpdates(rng, k, n)
		want := fedAvg(ups)
		got, err := secureFedAvg(ups, seed, 1000)
		if err != nil {
			return false
		}
		for i := range want {
			if math.Abs(got[i]-want[i]) > 1e-7 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestMaskingHidesIndividualUpdates(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	ups := randomUpdates(rng, 4, 50)
	ids := []int{0, 3, 6, 9}
	sub := MaskUpdate(ups[0], ids, 7, 100)
	// The masked vector must be far from the raw weighted vector: with
	// maskScale 100 the correlation should be destroyed.
	raw := make([]float64, 50)
	for k, v := range ups[0].Weights {
		raw[k] = float64(ups[0].NumSamples) * v
	}
	dist := 0.0
	for k := range raw {
		d := sub.Masked[k] - raw[k]
		dist += d * d
	}
	if math.Sqrt(dist) < 100 {
		t.Fatalf("mask too weak: distance %v", math.Sqrt(dist))
	}
}

func TestPairSeedSymmetric(t *testing.T) {
	if pairSeed(1, 3, 8) != pairSeed(1, 8, 3) {
		t.Fatal("pair seed must be order-independent")
	}
	if pairSeed(1, 3, 8) == pairSeed(2, 3, 8) {
		t.Fatal("pair seed must depend on the round seed")
	}
	if pairSeed(1, 3, 8) == pairSeed(1, 3, 9) {
		t.Fatal("pair seed must depend on the pair")
	}
}

func TestAggregateRejectsDropout(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	ups := randomUpdates(rng, 4, 10)
	ids := make([]int, len(ups))
	for i, u := range ups {
		ids[i] = u.ClientID
	}
	subs := make([]Submission, len(ups))
	for i, u := range ups {
		subs[i] = MaskUpdate(u, ids, 5, 10)
	}
	// Drop one submission: masks no longer cancel → must error.
	if _, err := Aggregate(subs[:3], ids); err == nil {
		t.Fatal("dropout accepted; masks would not cancel")
	}
	// Wrong participant set → must error.
	if _, err := Aggregate(subs, []int{0, 1, 2, 3}); err == nil {
		t.Fatal("mismatched participant set accepted")
	}
}

func TestAggregateEmptyAndMismatched(t *testing.T) {
	if _, err := Aggregate(nil, nil); err == nil {
		t.Fatal("empty aggregate accepted")
	}
	subs := []Submission{
		{ClientID: 0, Masked: []float64{1, 2}, NumSamples: 1},
		{ClientID: 1, Masked: []float64{1}, NumSamples: 1},
	}
	if _, err := Aggregate(subs, []int{0, 1}); err == nil {
		t.Fatal("length mismatch accepted")
	}
}

func TestSecureAggregationWithinFLRound(t *testing.T) {
	// End-to-end: run one engine round manually, mask the updates, and
	// verify the secure aggregate equals the engine's FedAvg.
	// (Uses the flcore test population helpers' shape: small MLP updates.)
	rng := rand.New(rand.NewSource(4))
	ups := randomUpdates(rng, 5, 2330)
	plain := fedAvg(ups)
	secure, err := secureFedAvg(ups, 99, 50)
	if err != nil {
		t.Fatal(err)
	}
	maxDiff := 0.0
	for i := range plain {
		if d := math.Abs(plain[i] - secure[i]); d > maxDiff {
			maxDiff = d
		}
	}
	if maxDiff > 1e-8 {
		t.Fatalf("secure round diverges by %v", maxDiff)
	}
}

// fedAvg is flcore.FedAvgInto into a fresh vector.
func fedAvg(ups []flcore.Update) []float64 {
	out := make([]float64, len(ups[0].Weights))
	flcore.FedAvgInto(out, ups)
	return out
}
