package main

import (
	"encoding/json"
	"math"
	"os"
	"regexp"
	"sort"
	"testing"
)

func readManifest(t *testing.T) manifestFile {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var m manifestFile
	if err := json.Unmarshal(data, &m); err != nil {
		t.Fatal(err)
	}
	return m
}

// TestManifestMatchesRegistry holds BENCHMARK.json and the metric registry
// together: the committed file is exactly what `benchmark manifest` prints.
func TestManifestMatchesRegistry(t *testing.T) {
	got, want := readManifest(t), buildManifest()
	a, _ := json.Marshal(got)
	b, _ := json.Marshal(want)
	if string(a) != string(b) {
		t.Fatalf("BENCHMARK.json is stale; regenerate it with `go run -C benchmark . manifest > BENCHMARK.json`\n got %s\nwant %s", a, b)
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	seen := map[string]bool{}
	check := func(n string) {
		if !name.MatchString(n) {
			t.Errorf("name %q does not match %v", n, name)
		}
		if seen[n] {
			t.Errorf("name %q used twice", n)
		}
		seen[n] = true
	}
	for _, w := range got.Workloads {
		check(w.Name)
		if len(w.Why) > 200 {
			t.Errorf("workload %s: why has %d characters", w.Name, len(w.Why))
		}
	}
	for _, m := range append(append([]manifestMetric(nil), got.EndToEnd...), got.PerLayer...) {
		check(m.Name)
		if !regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`).MatchString(m.Unit) {
			t.Errorf("metric %s: unit %q", m.Name, m.Unit)
		}
		if m.Better != "higher" && m.Better != "lower" {
			t.Errorf("metric %s: better %q", m.Name, m.Better)
		}
	}
	if len(got.PerLayer) > 128 || len(got.EndToEnd) > 16 {
		t.Errorf("%d per-layer and %d end-to-end metrics exceed the limits", len(got.PerLayer), len(got.EndToEnd))
	}
}

func keys(m map[string]metricValue) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

func names(ms []manifestMetric) []string {
	out := make([]string, len(ms))
	for i, m := range ms {
		out[i] = m.Name
	}
	sort.Strings(out)
	return out
}

func equal(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestQuick runs every workload, probe and check at toy size: both passes
// print exactly the metrics BENCHMARK.json lists, every check passes, no slot
// fails, and the traced shares account for the whole.
func TestQuick(t *testing.T) {
	m := readManifest(t)
	probed, err := runProbes(0.3, true)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range m.Workloads {
		for _, traced := range []bool{false, true} {
			pr, want := (*probeResults)(nil), names(m.EndToEnd)
			if traced {
				pr, want = probed, names(m.PerLayer)
			}
			res, err := runWorkload(w.Name, 1, 0.2, true, pr)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w.Name, traced, err)
			}
			for _, c := range res.Checks {
				if !c.OK {
					t.Errorf("%s traced=%v: check %s: %s", w.Name, traced, c.Name, c.Detail)
				}
			}
			if res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s traced=%v: %d failed of %d attempted", w.Name, traced, res.Failed, res.Attempted)
			}
			if got := keys(res.Metrics); !equal(got, want) {
				t.Errorf("%s traced=%v: metrics\n got %v\nwant %v", w.Name, traced, got, want)
			}
			if !traced {
				for k, v := range res.Metrics {
					if v.Value <= 0 || math.IsNaN(v.Value) {
						t.Errorf("%s: end-to-end metric %s = %v, must never be 0", w.Name, k, v.Value)
					}
				}
				continue
			}
			sum := 0.0
			for _, k := range []string{"train", "wire", "codec", "agg_self", "eval_select", "unattributed"} {
				sum += res.Metrics["trace."+k+"_share"].Value
			}
			if math.Abs(sum-1) > 0.02 {
				t.Errorf("%s: trace shares sum to %v, want 1 ± 0.02", w.Name, sum)
			}
			if len(res.Spans) == 0 {
				t.Errorf("%s: the traced pass recorded no spans", w.Name)
			}
		}
	}
}

func TestJudge(t *testing.T) {
	lower := metricDef{Name: "round_ms_p50", Better: "lower", Bound: 0.10}
	higher := metricDef{Name: "commits_per_s", Better: "higher", Bound: 0.10}
	tight := func(v float64) metricValue { return metricValue{Value: v, Q1: 0.99 * v, Q3: 1.01 * v} }
	wide := func(v float64) metricValue { return metricValue{Value: v, Q1: 0.9 * v, Q3: 1.1 * v} }
	for _, tc := range []struct {
		d    metricDef
		a, b metricValue
		want string
	}{
		{lower, tight(10), tight(10.5), "within bound"},
		{lower, tight(10), tight(11.5), "worse"},
		{lower, tight(10), tight(8), "better"},
		{higher, tight(100), tight(85), "worse"},
		{higher, tight(100), tight(120), "better"},
		{higher, wide(100), tight(97), "unresolved"},
		{higher, wide(100), tight(80), "worse"},
	} {
		if got, _ := judge(tc.d, tc.a, tc.b); got != tc.want {
			t.Errorf("%s %v → %v: %s, want %s", tc.d.Name, tc.a.Value, tc.b.Value, got, tc.want)
		}
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1, 2, 4, 7, 11, 16, 22, 29, 37, 46], n=4)
	q1, q3 := quartiles([]float64{46, 1, 37, 2, 29, 4, 22, 7, 16, 11})
	if q1 != 3.5 || q3 != 31 {
		t.Errorf("quartiles = %v, %v; want 3.5, 31", q1, q3)
	}
}
