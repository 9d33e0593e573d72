package experiments

import (
	"testing"
)

// TestMillionRunPopulationScale is the acceptance run for the event-driven
// scale extension: the full 1e6-client population (50k under -short)
// completes a ≥20-commit run with resident client state bounded by one
// cohort per tier.
func TestMillionRunPopulationScale(t *testing.T) {
	s := SmallScale()
	s.Population = 1_000_000
	if testing.Short() {
		s.Population = 50_000
	}
	out := MillionRun(s)

	if out.Population != s.Population {
		t.Fatalf("ran population %d, want %d", out.Population, s.Population)
	}
	if out.Commits < 20 {
		t.Fatalf("only %d commits; the scale run must complete at least 20", out.Commits)
	}
	if len(out.CommitsPerTier) != 5 {
		t.Fatalf("commit split %v, want 5 tiers", out.CommitsPerTier)
	}
	for tier, c := range out.CommitsPerTier {
		if c == 0 {
			t.Fatalf("tier %d never committed: %v", tier, out.CommitsPerTier)
		}
	}
	if out.SimTime > millionDuration {
		t.Fatalf("simulated time %v exceeds the budget %v", out.SimTime, millionDuration)
	}
	// THE memory contract: client state never scales with N. Each tier
	// holds at most one cohort, while its round trains, so the high-water
	// mark is tiers × cohort size, and nothing stays resident after the run.
	if bound := len(out.CommitsPerTier) * s.ClientsPerRound; out.PeakLive > bound {
		t.Fatalf("peak resident clients %d exceeds one cohort of %d per tier at population %d",
			out.PeakLive, s.ClientsPerRound, s.Population)
	}
	if out.LiveAfter != 0 {
		t.Fatalf("%d clients still resident after the run", out.LiveAfter)
	}
	if out.Residuals != 0 {
		t.Fatalf("uncompressed run tracked %d residuals", out.Residuals)
	}
	if out.Materialized < int64(out.ClientUpdates) {
		t.Fatalf("materialized %d clients for %d committed updates", out.Materialized, out.ClientUpdates)
	}
	if out.BytesPerClientUpdate <= 0 || out.UplinkBytes <= 0 {
		t.Fatalf("uplink accounting empty: %d total, %v per update", out.UplinkBytes, out.BytesPerClientUpdate)
	}
	if out.RoundsPerSec <= 0 {
		t.Fatalf("rounds/sec %v", out.RoundsPerSec)
	}
}

// TestRunExtensionMillionOutput smoke-checks the runner wiring at a small
// population: registered ID, one table, finite metrics.
func TestRunExtensionMillionOutput(t *testing.T) {
	s := SmallScale()
	s.Population = 5_000
	out := RunExtensionMillion(s)
	if out.ID != "ext_million" {
		t.Fatalf("output ID %q", out.ID)
	}
	if len(out.Tables) != 1 || len(out.Tables[0].Rows) != 1 {
		t.Fatalf("unexpected table shape: %+v", out.Tables)
	}
	if ByID("ext_million") == nil {
		t.Fatal("ext_million not registered in the runner list")
	}
}
