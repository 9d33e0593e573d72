package main

// runSeconds is how long one pass of one workload measures when the driver
// runs it: a short warm-up unit plus 8 or more units of about 1.5 s. Short on
// purpose: this kind of box changes speed by a quarter for minutes at a
// time, and the less wall time ten runs span, the fewer of them straddle
// such a shift.
const runSeconds = 15

// manifestFile is the shape of BENCHMARK.json at the repository root.
type manifestFile struct {
	Command    []string         `json:"command"`
	Paths      []string         `json:"paths"`
	RunSeconds int              `json:"run_seconds"`
	Workloads  []manifestEntry  `json:"workloads"`
	EndToEnd   []manifestMetric `json:"end_to_end"`
	PerLayer   []manifestMetric `json:"per_layer"`
}

type manifestEntry struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type manifestMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"` // end-to-end metrics only
}

// buildManifest derives BENCHMARK.json from the registries the benchmark
// runs from, so the file cannot name a metric the program does not print.
func buildManifest() manifestFile {
	m := manifestFile{
		Command:    []string{"go", "run", "-C", "benchmark", "."},
		Paths:      []string{"benchmark"},
		RunSeconds: runSeconds,
	}
	for _, w := range workloads {
		m.Workloads = append(m.Workloads, manifestEntry{Name: w.name, Why: w.why})
	}
	for _, d := range endToEnd {
		bound := d.Bound
		m.EndToEnd = append(m.EndToEnd, manifestMetric{Name: d.Name, Unit: d.Unit, Better: d.Better, Bound: &bound})
	}
	for _, p := range probes {
		m.PerLayer = append(m.PerLayer, manifestMetric{Name: p.name, Unit: p.unit, Better: p.better})
	}
	for _, d := range workloadMetrics {
		m.PerLayer = append(m.PerLayer, manifestMetric{Name: d.Name, Unit: d.Unit, Better: d.Better})
	}
	return m
}
