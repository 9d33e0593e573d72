package experiments

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/metrics"
)

func fmtSscan(s string, v *float64) (int, error) { return fmt.Sscan(s, v) }

// tinyScale keeps integration tests fast while preserving every code path.
func tinyScale() Scale {
	return Scale{
		Rounds: 10, LEAFRounds: 10,
		Clients: 50, ClientsPerRound: 5,
		TrainSize: 2000, TestSize: 400,
		EvalEvery: 3, LocalTestMax: 30, TestPerTier: 80, Interval: 3,
		Seed: 1, Parallel: true,
	}
}

func TestFig1aShape(t *testing.T) {
	out := RunFig1a(tinyScale())
	if len(out.Tables) != 1 {
		t.Fatalf("tables = %d", len(out.Tables))
	}
	tab := out.Tables[0]
	if len(tab.Rows) != 5 || len(tab.Columns) != 5 {
		t.Fatalf("table shape %dx%d", len(tab.Rows), len(tab.Columns))
	}
	series := out.Series["latency_by_size"]
	if len(series) != 5 {
		t.Fatalf("series = %d", len(series))
	}
	// Within each CPU level latency must grow with data size; across CPU
	// levels (same size) latency must grow as CPU shrinks.
	for _, s := range series {
		for i := 1; i < len(s.Y); i++ {
			if s.Y[i] <= s.Y[i-1] {
				t.Fatalf("%s: latency not increasing with data size: %v", s.Name, s.Y)
			}
		}
	}
	for i := 1; i < len(series); i++ {
		if series[i].Y[0] <= series[i-1].Y[0] {
			t.Fatalf("latency not increasing as CPU shrinks: %v vs %v", series[i].Y[0], series[i-1].Y[0])
		}
	}
}

func TestFig1bOrdering(t *testing.T) {
	s := tinyScale()
	s.Rounds = 20
	out := RunFig1b(s)
	series := out.Series["accuracy_over_rounds"]
	if len(series) != 4 {
		t.Fatalf("series = %d", len(series))
	}
	iid := series[0].Y[len(series[0].Y)-1]
	non2 := series[3].Y[len(series[3].Y)-1]
	if iid < non2-0.03 {
		t.Fatalf("IID final %v should not trail non-IID(2) %v", iid, non2)
	}
}

func TestTable2EstimationAccuracy(t *testing.T) {
	// The estimation error is dominated by how closely the realized tier
	// draw mix matches the policy probabilities, so give this test enough
	// rounds for the mix to converge (the paper uses 500).
	s := tinyScale()
	s.Rounds = 120
	out := RunTable2(s)
	mape := out.Series["mape"][0]
	if mape.Len() != 4 {
		t.Fatalf("mape rows = %d", mape.Len())
	}
	for i, v := range mape.Y {
		if v > 15 {
			t.Fatalf("MAPE[%d] = %v%%, estimation model badly off", i, v)
		}
	}
}

func TestFig3PolicySpeedups(t *testing.T) {
	out := RunFig3(tinyScale())
	// Tables: time+acc per column → 4 tables; first is resource times.
	if len(out.Tables) != 4 {
		t.Fatalf("tables = %d", len(out.Tables))
	}
	times := map[string]float64{}
	for _, row := range out.Tables[0].Rows {
		times[row[0]] = parseF(t, row[1])
	}
	if times["fast"] >= times["vanilla"] {
		t.Fatalf("fast %v not faster than vanilla %v", times["fast"], times["vanilla"])
	}
	if times["uniform"] >= times["vanilla"] {
		t.Fatalf("uniform %v not faster than vanilla %v", times["uniform"], times["vanilla"])
	}
	if times["slow"] <= times["fast"] {
		t.Fatalf("slow %v should exceed fast %v", times["slow"], times["fast"])
	}
}

func parseF(t *testing.T, s string) float64 {
	t.Helper()
	var v float64
	if _, err := fmtSscan(s, &v); err != nil {
		t.Fatalf("parse %q: %v", s, err)
	}
	return v
}

func TestFig7AdaptiveTimeWin(t *testing.T) {
	out := RunFig7(tinyScale())
	if len(out.Tables) != 2 {
		t.Fatalf("tables = %d", len(out.Tables))
	}
	for _, row := range out.Tables[0].Rows {
		vanilla := parseF(t, row[1])
		tifl := parseF(t, row[3])
		if tifl >= vanilla {
			t.Fatalf("scenario %s: TiFL time %v not below vanilla %v", row[0], tifl, vanilla)
		}
	}
}

func TestFig9LEAFShapes(t *testing.T) {
	out := RunFig9(tinyScale())
	series := out.Series["accuracy_over_rounds"]
	if len(series) != 6 {
		t.Fatalf("series = %d, want 6 policies", len(series))
	}
	times := map[string]float64{}
	for _, row := range out.Tables[0].Rows {
		times[row[0]] = parseF(t, row[1])
	}
	if times["fast"] >= times["vanilla"] {
		t.Fatalf("LEAF fast %v not faster than vanilla %v", times["fast"], times["vanilla"])
	}
	if times["slow"] <= times["uniform"] {
		t.Fatalf("LEAF slow %v should exceed uniform %v", times["slow"], times["uniform"])
	}
}

func TestRunAllAndWriteFiles(t *testing.T) {
	if testing.Short() {
		t.Skip("full suite in -short mode")
	}
	s := tinyScale()
	s.Rounds = 6
	s.LEAFRounds = 6
	s.TrainSize = 1500
	s.EvalEvery = 3
	dir := t.TempDir()
	for _, r := range All() {
		out := r.Run(s)
		if out.ID != r.ID {
			t.Fatalf("runner %s produced output ID %s", r.ID, out.ID)
		}
		if err := out.WriteFiles(dir); err != nil {
			t.Fatalf("%s: WriteFiles: %v", r.ID, err)
		}
		report := filepath.Join(dir, r.ID, "report.txt")
		data, err := os.ReadFile(report)
		if err != nil {
			t.Fatalf("%s: %v", r.ID, err)
		}
		if !strings.Contains(string(data), r.ID) {
			t.Fatalf("%s: report lacks ID header", r.ID)
		}
		if text := out.Render(); len(text) < 40 {
			t.Fatalf("%s: render too short:\n%s", r.ID, text)
		}
	}
}

func TestExtensionBaselines(t *testing.T) {
	out := RunExtensionBaselines(tinyScale())
	if len(out.Tables) != 1 || len(out.Tables[0].Rows) != 5 {
		t.Fatalf("expected 5 baseline rows, got %+v", out.Tables)
	}
	times := map[string]float64{}
	for _, row := range out.Tables[0].Rows {
		times[row[0]] = parseF(t, row[1])
	}
	if times["TiFL (adaptive)"] >= times["FedAvg (vanilla)"] {
		t.Fatalf("TiFL %v not faster than vanilla %v", times["TiFL (adaptive)"], times["FedAvg (vanilla)"])
	}
	// FedCS filters to the faster half, so it must beat vanilla on time.
	if times["FedCS (deadline)"] >= times["FedAvg (vanilla)"] {
		t.Fatalf("FedCS %v not faster than vanilla %v", times["FedCS (deadline)"], times["FedAvg (vanilla)"])
	}
}

func TestExtensionTieredAsync(t *testing.T) {
	out := RunExtensionTieredAsync(tinyScale())
	rows := out.Tables[0].Rows
	if len(rows) != 3 {
		t.Fatalf("rows = %d, want sync/async/tiered", len(rows))
	}
	// Tiered-async must reach the synchronous engine's final accuracy,
	// and do so in less simulated wall-clock than the FedAsync baseline
	// (FedAT's headline claim). Work on the raw series rather than the
	// table cells: the table rounds to 4 significant digits and renders
	// never-reached as "n/a".
	series := out.Series["accuracy_over_time"]
	if len(series) != 3 {
		t.Fatalf("series = %d, want sync/async/tiered", len(series))
	}
	target := series[0].Y[len(series[0].Y)-1]
	asyncTime := metrics.TimeToAccuracy(series[1], target)
	tieredTime := metrics.TimeToAccuracy(series[2], target)
	if math.IsNaN(tieredTime) {
		t.Fatalf("tiered-async never reached sync accuracy %v", target)
	}
	if !math.IsNaN(asyncTime) && tieredTime >= asyncTime {
		t.Fatalf("tiered-async %v not faster to target than FedAsync %v", tieredTime, asyncTime)
	}
	// Fast tiers must commit at least as many rounds as slow tiers.
	commits := out.Tables[1].Rows
	first := parseF(t, commits[0][1])
	last := parseF(t, commits[len(commits)-1][1])
	if first < last {
		t.Fatalf("fastest tier committed %v rounds, slowest %v", first, last)
	}
	// Same seed, same histories: the experiment is fully deterministic.
	again := RunExtensionTieredAsync(tinyScale())
	if out.Render() != again.Render() {
		t.Fatal("two runs with the same seed produced different reports")
	}
}

func TestExtensionDrift(t *testing.T) {
	s := tinyScale()
	s.Rounds = 30
	out := RunExtensionDrift(s)
	rows := out.Tables[0].Rows
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	staticTime := parseF(t, rows[0][1])
	dynTime := parseF(t, rows[1][1])
	if dynTime >= staticTime {
		t.Fatalf("dynamic %v should beat static %v under drift", dynTime, staticTime)
	}
	var retiers float64
	if _, err := fmtSscan(rows[1][3], &retiers); err != nil || retiers < 1 {
		t.Fatalf("dynamic never re-tiered: %v", rows[1])
	}
}

func TestByID(t *testing.T) {
	if r := ByID("fig3"); r == nil || r.ID != "fig3" {
		t.Fatalf("ByID(fig3) = %+v", r)
	}
	if ByID("nope") != nil {
		t.Fatal("ByID(nope) should be nil")
	}
	if len(All()) != 24 {
		t.Fatalf("runners = %d, want 24", len(All()))
	}
}

func TestScalesSane(t *testing.T) {
	for _, s := range []Scale{SmallScale(), FullScale()} {
		if s.Clients%5 != 0 {
			t.Fatalf("clients %d not divisible into 5 groups", s.Clients)
		}
		if s.ClientsPerRound <= 0 || s.Rounds <= 0 {
			t.Fatalf("bad scale %+v", s)
		}
	}
	if FullScale().Rounds != 500 || FullScale().LEAFRounds != 2000 {
		t.Fatalf("full scale must match the paper: %+v", FullScale())
	}
}
