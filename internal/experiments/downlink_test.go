package experiments

import "testing"

func TestExtensionDownlinkShape(t *testing.T) {
	out := RunExtensionDownlink(tinyScale())
	if out.ID != "ext_downlink" || len(out.Tables) != 1 {
		t.Fatalf("output shape: id=%q tables=%d", out.ID, len(out.Tables))
	}
	if len(out.Tables[0].Rows) != 5 {
		t.Fatalf("rows = %d, want one per downlink arm", len(out.Tables[0].Rows))
	}
}

func TestDownlinkSweepDeterministic(t *testing.T) {
	a := DownlinkSweep(tinyScale())
	b := DownlinkSweep(tinyScale())
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("arm %d differs across identical runs: %+v vs %+v", i, a[i], b[i])
		}
	}
}

func TestDownlinkSweepAcceptance(t *testing.T) {
	// The headline claim of the downlink extension, at the paper's round
	// budget over the small-scale population: with the server-side
	// error-feedback residual, the int8 delta broadcast ends within one
	// accuracy point of the dense broadcast while moving >=4x fewer
	// downlink bytes. Everything is seeded, so the check is deterministic.
	if testing.Short() {
		t.Skip("paper-round-budget sweep (~1min) skipped in short mode")
	}
	s := SmallScale()
	s.Rounds = FullScale().Rounds
	arms := DownlinkSweep(s)
	byMode := map[string]DownlinkArm{}
	for _, a := range arms {
		byMode[a.Mode] = a
	}
	dense, ok := byMode["dense"]
	if !ok {
		t.Fatalf("sweep arms missing dense baseline: %+v", arms)
	}
	ratio := func(a DownlinkArm) float64 {
		return float64(dense.DownlinkBytes) / float64(a.DownlinkBytes)
	}
	arm := func(mode string) DownlinkArm {
		a, ok := byMode[mode]
		if !ok {
			t.Fatalf("sweep arms missing %s: %+v", mode, arms)
		}
		return a
	}

	// The lossless delta reconstructs bit-exact models, so any accuracy
	// movement comes only from the byte-aware latency model repacking the
	// commit schedule (cheaper broadcasts → more commits in the budget).
	// It must stay within the 1-point band while saving bytes.
	if a := arm("delta"); a.FinalAcc < dense.FinalAcc-0.01 {
		t.Errorf("delta final accuracy %.4f more than 1 point below dense %.4f", a.FinalAcc, dense.FinalAcc)
	} else if ratio(a) <= 1 {
		t.Errorf("delta downlink reduction %.2fx <= 1x (%d vs %d bytes)", ratio(a), a.DownlinkBytes, dense.DownlinkBytes)
	}

	// Headline: quantized delta broadcast hits the 4x byte target inside
	// the 1-point accuracy band.
	if a := arm("delta+int8"); a.FinalAcc < dense.FinalAcc-0.01 {
		t.Errorf("delta+int8 final accuracy %.4f more than 1 point below dense %.4f", a.FinalAcc, dense.FinalAcc)
	} else if ratio(a) <= 4 {
		t.Errorf("delta+int8 downlink reduction %.2fx <= 4x (%d vs %d bytes)", ratio(a), a.DownlinkBytes, dense.DownlinkBytes)
	}

	// The sampled-cohort arms: members that sat out rounds are caught up
	// from the tier chain's ring instead of re-sent the dense model, so the
	// int8 delta keeps >=3x of its savings (1.77x when every gap fell back
	// to dense) within a point of the sampled dense broadcast.
	sd := arm("dense (sampled)")
	si := arm("delta+int8 (sampled)")
	r := float64(sd.DownlinkBytes) / float64(si.DownlinkBytes)
	t.Logf("sampled delta+int8: %.2fx fewer downlink bytes (%d vs %d), accuracy %.4f vs dense %.4f", r, si.DownlinkBytes, sd.DownlinkBytes, si.FinalAcc, sd.FinalAcc)
	if r < 3 {
		t.Errorf("sampled delta+int8 downlink reduction %.2fx < 3x (%d vs %d bytes)", r, si.DownlinkBytes, sd.DownlinkBytes)
	}
	if si.FinalAcc < sd.FinalAcc-0.01 {
		t.Errorf("sampled delta+int8 final accuracy %.4f more than 1 point below sampled dense %.4f", si.FinalAcc, sd.FinalAcc)
	}
}
