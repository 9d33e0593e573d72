// Command benchmark is this repository's benchmark: five TiFL/FedAT
// workloads, their end-to-end metrics, a traced pass and standalone layer
// probes for the per-layer metrics, and correctness checks on every output.
//
//	go run -C benchmark . --workload net_flat_dense --seed 1 --seconds 20 --trace 0
//	    one workload, one pass; the last line of standard output is one JSON
//	    object {correct, attempted, failed, metrics}
//	go run -C benchmark . -seed 1 -out run.json
//	    every workload, both passes, each in its own child process; prints
//	    the table and writes the full result (with env and spans) to run.json
//	go run -C benchmark . compare A.json B.json
//	    applies every end-to-end metric's own bound and direction
//	go run -C benchmark . manifest > BENCHMARK.json
//	    regenerates the manifest from the metric registry
//
// See README.md for what each workload and metric is for.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"syscall"
	"time"
)

// workload is one set of inputs the benchmark runs.
type workload struct {
	name, why string
	sim       bool // simulated time: no sockets, shares come from op counts
	run       func(env *runEnv) (unit, error)
}

// runEnv is what one unit of a workload gets from the harness.
type runEnv struct {
	seed    int64
	sizes   sizes
	tr      *tracer // nil: this unit runs with tracing off
	tmp     string  // scratch directory inside the checkout
	unitIdx int
	accs    map[uint64]float64 // held-out accuracy by final-weights checksum
}

// unit is what one timed unit reports: a fresh set-up followed by a fixed
// amount of work. Every timing metric is a median over units.
type unit struct {
	setupS     float64 // data, clients, tifl.New, listeners, registration
	wallS      float64 // the timed phase
	cpuS       float64 // process CPU seconds spent in it
	commits    int     // global model versions applied
	samples    int64   // training samples behind the aggregated updates
	roundMs    []float64
	lastCommit time.Time // sims: when the previous commit callback fired
	// final_acc: held-out accuracy, or on the stub fleets the share of the
	// distance to the stub optimum the global model closed.
	finalAcc           float64
	upBytes, downBytes int64
	attempted, failed  int     // dispatched cohort slots, and those missing from their aggregate
	simTargetS         float64 // simulated seconds to the target accuracy; 0 = not reached or not a sim

	// correctness
	exact    bool   // commit count as configured, versions strictly 1..N
	finite   bool   // every final weight finite
	checksum uint64 // of the final weights' bit patterns
	wantUp   int64  // Σ clients × encoded update size

	// what the traced pass explains moves with
	staleness      []float64
	tierCommits    []int
	broadcasts     int // sims: broadcasts sent, and how many of them went dense
	denseFallbacks int
	denseDim       int // sockets: a read at least this many parameters long is a dense broadcast
	checkpoints    int
	ops            opCounts
	aggOps         aggOpCounts
	// clientRoundProbe names the probe that times one of this workload's
	// client rounds standalone (ms per Engine.TrainClient); empty on the stub
	// fleets. Every filled cohort slot is one client round.
	clientRoundProbe string

	allocMB  float64
	mallocs  uint64
	gcCycles uint32
	gcCPUS   float64
}

// opCounts is what a simulated unit did, counted from its result log. The
// sims have no seam below the commit callback, so their time shares are
// estimated as count × standalone probe time ÷ CPU time.
type opCounts struct {
	evalSamples                int64
	evalProbe                  string // samples/s
	codecEncodes, codecDecodes int64
	codecDim                   int
	fedavgs                    int64
	fedavgDim, fedavgK         int
	mixes                      int64
	selects                    int64
	selectProbe                string // us per cohort draw
	observes, retiers          int64  // tiering.Manager calls
}

// aggOpCounts is the codec and weight-format work a socket unit's
// aggregators did where no seam reaches, counted from its result log.
type aggOpCounts struct {
	dim                            int
	chainEncodes, applies, decodes int64 // lossy downlink advance, pull reconstruction, update decode
	denseEncodes, denseDecodes     int64 // nn.EncodeWeights, nn.DecodeWeights
}

func (env *runEnv) begin(name string, parent *span) *span {
	layer := layerSetup
	switch name {
	case "rep":
		layer = "rep"
	case "run":
		layer = "unattributed"
	}
	s := &span{Name: name, Layer: layer, start: time.Now(), tier: -1}
	if parent != nil {
		s.Parent = parent.ID
	}
	return env.tr.add(s)
}

func (env *runEnv) end(s *span) { s.end = time.Now() }

// simCommit books one commit of a simulated unit, called from the engine's
// commit callback: the time since the previous callback is the commit's span
// and one tier round's wall duration.
func (env *runEnv) simCommit(u *unit, run *span, tier, round int) {
	now, last := time.Now(), run.start
	if u.lastCommit != (time.Time{}) {
		last = u.lastCommit
	}
	u.lastCommit = now
	u.roundMs = append(u.roundMs, now.Sub(last).Seconds()*1e3)
	env.tr.add(&span{Name: "commit", Layer: layerAgg, Parent: run.ID, Commit: commitKey(tier, round), start: last, end: now, tier: -1})
}

// timed runs the timed phase of a unit and books wall, CPU and heap deltas.
func (env *runEnv) timed(u *unit, fn func()) {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	gc0, c0, t0 := gcCPUSeconds(), cpuSeconds(), time.Now()
	fn()
	u.wallS = time.Since(t0).Seconds()
	u.cpuS = cpuSeconds() - c0
	u.gcCPUS = gcCPUSeconds() - gc0
	runtime.ReadMemStats(&m1)
	u.allocMB = float64(m1.TotalAlloc-m0.TotalAlloc) / 1e6
	u.mallocs = m1.Mallocs - m0.Mallocs
	u.gcCycles = m1.NumGC - m0.NumGC
}

func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

func gcCPUSeconds() float64 {
	s := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindFloat64 {
		return 0
	}
	return s[0].Value.Float64()
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(compareMain(os.Args[2:]))
	}
	if len(os.Args) > 1 && os.Args[1] == "manifest" {
		data, err := json.MarshalIndent(buildManifest(), "", "  ")
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			os.Exit(1)
		}
		fmt.Println(string(data))
		return
	}
	var (
		name    = flag.String("workload", "", "run this one workload in this process and print one JSON line; empty runs every workload in child processes")
		seed    = flag.Int64("seed", 1, "derives data, partition, model init and cohort draws")
		seconds = flag.Float64("seconds", runSeconds, "how long one pass of one workload measures")
		trace   = flag.Int("trace", 0, "1 records spans and prints the per-layer metrics instead of the end-to-end ones")
		quick   = flag.Bool("quick", false, "every workload, probe and check at toy size")
		out     = flag.String("out", "", "write the full result, with env and spans, to this file")
	)
	flag.Parse()
	if *name == "" {
		os.Exit(suiteMain(*seed, *seconds, *quick, *out))
	}
	var probed *probeResults
	var err error
	if *trace == 1 {
		if probed, err = runProbes(*seconds/2, *quick); err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			os.Exit(1)
		}
	}
	res, err := runWorkload(*name, *seed, *seconds, *quick, probed)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
	if *out != "" {
		if err := writeJSON(*out, res); err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			os.Exit(1)
		}
	}
	for _, c := range res.Checks {
		if !c.OK {
			fmt.Fprintf(os.Stderr, "benchmark: %s: check failed: %s: %s\n", res.Workload, c.Name, c.Detail)
		}
	}
	line, err := json.Marshal(res.contractLine())
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// scratchDir makes a per-process directory inside the checkout (the working
// directory), for checkpoints and probe files.
func scratchDir() (string, func(), error) {
	dir := filepath.Join(".bench_tmp", fmt.Sprintf("p%d", os.Getpid()))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", nil, err
	}
	return dir, func() {
		os.RemoveAll(dir)       //nolint:errcheck // best-effort cleanup of our own scratch
		os.Remove(".bench_tmp") //nolint:errcheck // succeeds only when no other run is using it
	}, nil
}
