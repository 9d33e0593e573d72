package main

import (
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
)

// suiteResult is the file `-out` writes when every workload is run: both
// passes of each workload, each measured in its own child process so that
// peak_rss_mb and heap state are per workload.
type suiteResult struct {
	// Claim stays null: the change that defines the benchmark claims no gain.
	Claim     *string                `json:"claim"`
	Env       envBlock               `json:"env"`
	Workloads map[string]*passResult `json:"workloads"`
}

type passResult struct {
	EndToEnd *result `json:"end_to_end"`
	PerLayer *result `json:"per_layer"`
}

// suiteMain runs every workload untraced and traced, prints every metric by
// name with its unit, and exits non-zero on any failed check.
func suiteMain(seed int64, seconds float64, quick bool, out string) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	tmp, cleanup, err := scratchDir()
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	defer cleanup()
	suite := &suiteResult{Workloads: map[string]*passResult{}}
	var spans []*span
	status := 0
	for _, w := range workloads {
		pr := &passResult{}
		suite.Workloads[w.name] = pr
		for trace, dst := range []**result{&pr.EndToEnd, &pr.PerLayer} {
			file := filepath.Join(tmp, fmt.Sprintf("%s-%d.json", w.name, trace))
			args := []string{"-workload", w.name, "-seed", fmt.Sprint(seed), "-seconds", fmt.Sprint(seconds), "-trace", fmt.Sprint(trace), "-out", file}
			if quick {
				args = append(args, "-quick")
			}
			cmd := exec.Command(self, args...)
			cmd.Stderr = os.Stderr
			if err := cmd.Run(); err != nil {
				fmt.Fprintf(os.Stderr, "benchmark: %s (trace %d): %v\n", w.name, trace, err)
				status = 1
			}
			data, err := os.ReadFile(file)
			if err != nil {
				fmt.Fprintln(os.Stderr, "benchmark:", err)
				return 1
			}
			r := &result{}
			if err := json.Unmarshal(data, r); err != nil {
				fmt.Fprintln(os.Stderr, "benchmark:", err)
				return 1
			}
			for _, s := range r.Spans {
				s.Name = w.name + "/" + s.Name
			}
			spans, r.Spans = append(spans, r.Spans...), nil
			*dst = r
			if !r.Correct {
				status = 1
			}
			suite.Env = r.Env
		}
	}
	printSuite(suite)
	if out != "" {
		if err := writeJSON(out, suite); err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			return 1
		}
		if err := writeJSON(strings.TrimSuffix(out, ".json")+".spans.json", spans); err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			return 1
		}
	}
	return status
}

func printSuite(s *suiteResult) {
	e := s.Env
	fmt.Printf("env: %s, nproc %d, GOMAXPROCS %d, %s, commit %s, seed %d\n\n", e.CPU, e.NProc, e.GOMAXPROCS, e.Go, e.Commit, e.Seed)
	fmt.Printf("%-28s %-9s", "end-to-end (untraced pass)", "unit")
	for _, w := range workloads {
		fmt.Printf(" %16s", w.name)
	}
	fmt.Println()
	cell := func(r *result, name string) string {
		v, ok := r.Metrics[name]
		if !ok {
			return "n/a"
		}
		if v.Noisy {
			return fmt.Sprintf("%.5g noisy", v.Value)
		}
		return fmt.Sprintf("%.5g", v.Value)
	}
	for _, d := range endToEnd {
		fmt.Printf("%-28s %-9s", d.Name, d.Unit)
		for _, w := range workloads {
			fmt.Printf(" %16s", cell(s.Workloads[w.name].EndToEnd, d.Name))
		}
		fmt.Println()
	}
	fmt.Printf("%-28s %-9s", "failed_share", "fraction")
	for _, w := range workloads {
		r := s.Workloads[w.name].EndToEnd
		fmt.Printf(" %16.5g", float64(r.Failed)/float64(max(r.Attempted, 1)))
	}
	fmt.Printf("\n%-28s %-9s", "sim_time_to_target_s", "s")
	for _, w := range workloads {
		if w.sim {
			fmt.Printf(" %16s", cell(s.Workloads[w.name].PerLayer, "sim.time_to_target_s"))
		} else {
			fmt.Printf(" %16s", "n/a")
		}
	}
	fmt.Printf("\n%-28s %-9s", "units", "count")
	for _, w := range workloads {
		fmt.Printf(" %16d", s.Workloads[w.name].EndToEnd.Env.Units)
	}
	fmt.Printf("\n\n%-34s %-9s", "per workload (traced pass)", "unit")
	for _, w := range workloads {
		fmt.Printf(" %16s", w.name)
	}
	fmt.Println()
	for _, d := range workloadMetrics {
		fmt.Printf("%-34s %-9s", d.Name, d.Unit)
		for _, w := range workloads {
			fmt.Printf(" %16s", cell(s.Workloads[w.name].PerLayer, d.Name))
		}
		fmt.Println()
	}
	// The probes do not depend on the workload; every traced pass ran them,
	// so print the median over the passes.
	fmt.Printf("\n%-36s %-9s %12s\n", "layer probes (standalone)", "unit", "median")
	for _, p := range probes {
		var v []float64
		for _, w := range workloads {
			v = append(v, s.Workloads[w.name].PerLayer.Metrics[p.name].Value)
		}
		fmt.Printf("%-36s %-9s %12.5g\n", p.name, p.unit, median(v))
	}
	failed := 0
	for _, w := range workloads {
		for _, r := range []*result{s.Workloads[w.name].EndToEnd, s.Workloads[w.name].PerLayer} {
			for _, c := range r.Checks {
				if !c.OK {
					failed++
					fmt.Printf("CHECK FAILED %s %s: %s\n", w.name, c.Name, c.Detail)
				}
			}
		}
	}
	fmt.Printf("\nchecks failed: %d\n", failed)
}

// compareMain applies each end-to-end metric's own bound and direction per
// workload to two suite results of the same benchmark (A the parent, B the
// change) and prints one row per pair. It exits non-zero on any row that is
// worse, or on a higher failed share.
func compareMain(args []string) int {
	if len(args) != 2 {
		fmt.Fprintln(os.Stderr, "usage: benchmark compare A.json B.json")
		return 2
	}
	var suites [2]suiteResult
	for i, path := range args {
		data, err := os.ReadFile(path)
		if err == nil {
			err = json.Unmarshal(data, &suites[i])
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchmark: %s: %v\n", path, err)
			return 2
		}
	}
	a, b := suites[0], suites[1]
	names := make([]string, 0, len(a.Workloads))
	for name := range a.Workloads {
		names = append(names, name)
	}
	sort.Strings(names)
	status := 0
	fmt.Printf("%-16s %-26s %12s %12s %8s %7s  %s\n", "workload", "metric", "A", "B", "change", "bound", "verdict")
	for _, name := range names {
		pa, pb := a.Workloads[name], b.Workloads[name]
		if pb == nil || pa.EndToEnd == nil || pb.EndToEnd == nil {
			fmt.Printf("%-16s missing from B\n", name)
			status = 1
			continue
		}
		for _, d := range endToEnd {
			va, vb := pa.EndToEnd.Metrics[d.Name], pb.EndToEnd.Metrics[d.Name]
			verdict, change := judge(d, va, vb)
			if verdict == "worse" {
				status = 1
			}
			fmt.Printf("%-16s %-26s %12.5g %12.5g %+7.1f%% %6.0f%%  %s\n", name, d.Name, va.Value, vb.Value, 100*change, 100*d.Bound, verdict)
		}
		fa := float64(pa.EndToEnd.Failed) / float64(max(pa.EndToEnd.Attempted, 1))
		fb := float64(pb.EndToEnd.Failed) / float64(max(pb.EndToEnd.Attempted, 1))
		verdict := "within bound"
		if fb > fa {
			verdict, status = "worse", 1
		}
		fmt.Printf("%-16s %-26s %12.5g %12.5g %8s %7s  %s\n", name, "failed_share", fa, fb, "", "any", verdict)
	}
	return status
}

// judge compares one metric of one workload. change is B against A, signed so
// that positive is worse. A pair is unresolved when it is inside the bound
// but either side's own quartile spread is wider than the bound: one run
// each cannot tell "unchanged" from "changed by the bound".
func judge(d metricDef, a, b metricValue) (verdict string, change float64) {
	if a.Value == 0 {
		return "unresolved", 0
	}
	change = (b.Value - a.Value) / a.Value
	if d.Better == "higher" {
		change = -change
	}
	spread := func(v metricValue) float64 {
		return summary{Median: v.Value, Q1: v.Q1, Q3: v.Q3}.spread()
	}
	switch {
	case change > d.Bound:
		return "worse", change
	case change < -d.Bound:
		return "better", change
	case spread(a) > d.Bound || spread(b) > d.Bound:
		return "unresolved", change
	}
	return "within bound", change
}
