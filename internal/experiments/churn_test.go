package experiments

import (
	"math"
	"testing"

	"repro/internal/compress"
	"repro/internal/core"
	"repro/internal/flcore"
)

func TestExtensionChurnShape(t *testing.T) {
	out := RunExtensionChurn(tinyScale())
	if out.ID != "ext_churn" || len(out.Tables) != 1 {
		t.Fatalf("output shape: id=%q tables=%d", out.ID, len(out.Tables))
	}
	if len(out.Tables[0].Rows) != 4 {
		t.Fatalf("rows = %d, want one per churn rate", len(out.Tables[0].Rows))
	}
}

func TestChurnSweepDeterministic(t *testing.T) {
	a := ChurnSweep(tinyScale())
	b := ChurnSweep(tinyScale())
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("arm %d differs across identical runs: %+v vs %+v", i, a[i], b[i])
		}
	}
}

// TestChurnAccountingExact pins the no-double-count contract: every commit
// counts each surviving member exactly once, members stay within their
// tier, and the charged uplink is exactly the survivors' dense updates —
// a flapped client contributes neither gradient nor bytes.
func TestChurnAccountingExact(t *testing.T) {
	s := tinyScale()
	sc := s.newScenario("ext-churn", cifarSpec(), hetCombine, 5)
	tiers, _ := sc.tiers(s)
	members := core.TierMembers(tiers)
	duration := 2.5 * float64(s.Rounds)
	base := s.engineConfig(sc.spec)

	run := func(rate float64) (*flcore.TieredAsyncResult, int) {
		participations := 0
		res := flcore.RunTieredAsync(flcore.TieredAsyncConfig{
			CommitterConfig: flcore.CommitterConfig{
				ClientsPerRound: s.ClientsPerRound, TierWeight: core.FedATWeights(), Seed: s.Seed,
			},
			Duration: duration, EvalInterval: duration,
			BatchSize: 10, LocalEpochs: 1,
			Model: base.Model, Optimizer: base.Optimizer, Latency: CommLatencyModel,
			EvalBatch: 256, ChurnRate: rate,
			OnCommit: func(rec flcore.TierRoundRecord) {
				participations += len(rec.Selected)
			},
		}, members, sc.clients(s), sc.test)
		return res, participations
	}

	res, flapped := run(0.3)
	inTier := make([]map[int]bool, len(members))
	for ti, ms := range members {
		inTier[ti] = make(map[int]bool, len(ms))
		for _, ci := range ms {
			inTier[ti][ci] = true
		}
	}
	dense := int64(compress.DenseBytes(len(res.Weights)))
	var upSum int64
	for i, rec := range res.TierRounds {
		seen := map[int]bool{}
		for _, ci := range rec.Selected {
			if seen[ci] {
				t.Fatalf("commit %d counts client %d twice: %v", i, ci, rec.Selected)
			}
			seen[ci] = true
			if !inTier[rec.Tier][ci] {
				t.Fatalf("commit %d (tier %d) counts client %d outside the tier", i, rec.Tier, ci)
			}
		}
		if rec.UplinkBytes != int64(len(rec.Selected))*dense {
			t.Fatalf("commit %d uplink %d bytes != %d survivors x %d dense bytes",
				i, rec.UplinkBytes, len(rec.Selected), dense)
		}
		upSum += rec.UplinkBytes
	}
	if upSum != res.UplinkBytes {
		t.Fatalf("uplink total %d != sum of per-commit uplink %d", res.UplinkBytes, upSum)
	}
	if _, clean := run(0); flapped >= clean {
		t.Fatalf("churned run counted %d participations, no-churn run %d — flaps not excluded", flapped, clean)
	}
}

func TestChurnSweepAcceptance(t *testing.T) {
	// The headline claim of the churn extension, at the paper's round budget
	// over the small-scale population: FedAT's staleness-discounted tier
	// commits absorb seeded worker flaps, so moderate churn (10–20% of each
	// round's cohort) ends within one accuracy point of the fault-free run
	// while moving proportionally fewer wire bytes. Everything is seeded, so
	// the check is deterministic.
	if testing.Short() {
		t.Skip("paper-round-budget sweep (~1min) skipped in short mode")
	}
	s := SmallScale()
	s.Rounds = FullScale().Rounds
	arms := ChurnSweep(s)
	base := arms[0]
	if base.Rate != 0 {
		t.Fatalf("first arm is not the no-churn baseline: %+v", base)
	}
	for _, a := range arms[1:3] {
		if math.Abs(a.FinalAcc-base.FinalAcc) > 0.01 {
			t.Errorf("churn %.0f%% final accuracy %.4f more than 1 point from no-churn %.4f",
				a.Rate*100, a.FinalAcc, base.FinalAcc)
		}
	}
	for _, a := range arms[1:] {
		if a.UplinkBytes >= base.UplinkBytes {
			t.Errorf("churn %.0f%% moved %d uplink bytes, no-churn %d — flapped members still charged",
				a.Rate*100, a.UplinkBytes, base.UplinkBytes)
		}
	}
}
