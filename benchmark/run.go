package main

import (
	"bufio"
	"fmt"
	"math"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
	"time"
)

// metricDef describes one metric. BENCHMARK.json lists the same names, units
// and directions; the package test holds the two together.
type metricDef struct {
	Name   string
	Unit   string
	Better string  // "higher" or "lower"
	Bound  float64 // end-to-end only: share of the parent's median it may worsen by
	Timing bool    // quartile spread wider than Bound marks the row noisy
	// Moves names, for a per-layer metric, the end-to-end metric @ workload it
	// should move (the prediction written down before measuring).
	Moves string
}

// endToEnd are the metrics a user of the system sees, reported from the
// untraced pass only. failed_share is carried by the result line's
// attempted/failed counts, and the paper's simulated time-to-target applies
// to two of five workloads only, so it is reported per layer
// (sim.time_to_target_s).
//
// The bounds are sized to what ten runs on ten seeds spread on a shared
// 2-core box, not to what one would like to resolve: wall-clock metrics there
// move by 5–12 % between runs and by a quarter when the host changes speed,
// accuracy by 1–5 % and downlink bytes by up to 12 % with the seed's cohort draws.
// Claims finer than a bound rest on paired runs (see README).
var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25, Timing: true},
	{Name: "commits_per_s", Unit: "1/s", Better: "higher", Bound: 0.25, Timing: true},
	{Name: "samples_per_s", Unit: "1/s", Better: "higher", Bound: 0.25, Timing: true},
	{Name: "round_ms_p50", Unit: "ms", Better: "lower", Bound: 0.25, Timing: true},
	{Name: "final_acc", Unit: "fraction", Better: "higher", Bound: 0.10},
	{Name: "uplink_bytes_per_commit", Unit: "B", Better: "lower", Bound: 0.02},
	{Name: "downlink_bytes_per_commit", Unit: "B", Better: "lower", Bound: 0.25},
	{Name: "peak_rss_mb", Unit: "MB", Better: "lower", Bound: 0.20},
}

// workloadMetrics are the per-layer metrics each workload measures on
// itself; the standalone probes (probes.go) supply the rest.
var workloadMetrics = []metricDef{
	{Name: "sim.time_to_target_s", Unit: "s", Better: "lower", Moves: "the paper's headline: simulated seconds until evaluated accuracy reaches the workload's target; sims only, 0 elsewhere; any policy change in core/tiering moves it"},
	{Name: "runtime.alloc_mb_per_commit", Unit: "MB", Better: "lower", Moves: "commits_per_s, peak_rss_mb @ net_flat_dense (2 MB buffer alloc/clear tops its profile); near zero on sims"},
	{Name: "runtime.mallocs_per_commit", Unit: "count", Better: "lower", Moves: "commits_per_s @ net_flat_dense, net_flat_int8"},
	{Name: "runtime.gc_cycles", Unit: "count", Better: "lower", Moves: "commits_per_s, round_ms_p50 @ net_flat_dense"},
	{Name: "runtime.gc_cpu_share", Unit: "fraction", Better: "lower", Moves: "commits_per_s @ net_flat_dense"},
	{Name: "trace.train_share", Unit: "fraction", Better: "higher", Moves: "the share that shrinks names the layer a later change claims: tensor/nn @ sim_sync_cnn, net_tree_train"},
	{Name: "trace.wire_share", Unit: "fraction", Better: "lower", Moves: "flnet framing, nn weight (de)serialisation @ net_flat_dense"},
	{Name: "trace.codec_share", Unit: "fraction", Better: "lower", Moves: "compress @ net_flat_int8, then sim_fedat_mlp, net_tree_train"},
	{Name: "trace.agg_self_share", Unit: "fraction", Better: "lower", Moves: "flcore FedAvg/CommitMix/checkpoint, flnet fan-in @ net_*"},
	{Name: "trace.eval_select_share", Unit: "fraction", Better: "lower", Moves: "core.AdaptiveSelector.AfterRound @ sim_sync_cnn; tiering.Manager @ sim_fedat_mlp"},
	{Name: "trace.unattributed_share", Unit: "fraction", Better: "lower", Moves: "what ROADMAP item 5 still has to instrument"},
	{Name: "trace.round_ms_p95", Unit: "ms", Better: "lower", Moves: "tail beside round_ms_p50; not gated"},
	{Name: "trace.train_ms_p50", Unit: "ms", Better: "lower", Moves: "round_ms_p50 @ net_*"},
	{Name: "trace.wire_mb_read", Unit: "MB", Better: "lower", Moves: "downlink_bytes_per_commit @ net_*"},
	{Name: "trace.wire_mb_written", Unit: "MB", Better: "lower", Moves: "uplink_bytes_per_commit @ net_*"},
	{Name: "trace.wire_blocked_ms_p50", Unit: "ms", Better: "lower", Moves: "idle time of a worker link between rounds; explains round_ms_p50 @ net_*"},
	{Name: "trace.staleness_p50", Unit: "count", Better: "lower", Moves: "explains final_acc moves @ net_tree_train, sim_fedat_mlp"},
	{Name: "trace.staleness_max", Unit: "count", Better: "lower", Moves: "explains final_acc moves @ net_tree_train"},
	{Name: "trace.tier_commit_share_min", Unit: "fraction", Better: "higher", Moves: "explains final_acc moves @ net_tree_train"},
	{Name: "trace.dense_fallback_share", Unit: "fraction", Better: "lower", Moves: "explains downlink_bytes_per_commit"},
	{Name: "trace.parallel_efficiency", Unit: "fraction", Better: "higher", Moves: "share of the box's core-seconds turned into training, at the standalone cost of a client round; explains samples_per_s @ training workloads"},
	{Name: "trace.overhead_pct", Unit: "%", Better: "lower", Moves: "commits_per_s difference between traced and untraced units"},
}

// accFloor fails a unit whose final_acc lands below it.
var accFloor = map[string]float64{
	"sim_sync_cnn": 0.6, "sim_fedat_mlp": 0.5, "net_flat_dense": 0.3, "net_flat_int8": 0.3, "net_tree_train": 0.5,
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	Q1    float64 `json:"q1,omitempty"`
	Q3    float64 `json:"q3,omitempty"`
	N     int     `json:"n,omitempty"`
	// Samples are the per-unit values behind the median, in unit order.
	Samples []float64 `json:"samples,omitempty"`
	// Noisy: the quartile spread over this run's units is wider than the
	// metric's bound, so one run cannot resolve a change of that size.
	Noisy bool `json:"noisy,omitempty"`
}

type check struct {
	Name   string `json:"name"`
	OK     bool   `json:"ok"`
	Detail string `json:"detail,omitempty"`
}

type envBlock struct {
	CPU        string `json:"cpu"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Go         string `json:"go"`
	Commit     string `json:"commit"`
	Seed       int64  `json:"seed"`
	Units      int    `json:"units"`
	Traced     int    `json:"traced_units"`
}

// result is one pass of one workload.
type result struct {
	Workload  string                 `json:"workload"`
	Traced    bool                   `json:"traced"`
	Quick     bool                   `json:"quick,omitempty"`
	Seconds   float64                `json:"seconds"`
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
	Checks    []check                `json:"checks"`
	Env       envBlock               `json:"env"`
	Spans     []*span                `json:"spans,omitempty"`
}

// contractLine is the one JSON object the driver reads.
func (r *result) contractLine() map[string]any {
	m := map[string]any{}
	for k, v := range r.Metrics {
		m[k] = map[string]any{"value": v.Value, "unit": v.Unit}
	}
	return map[string]any{"correct": r.Correct, "attempted": r.Attempted, "failed": r.Failed, "metrics": m}
}

func findWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// runWorkload runs one pass: a discarded warm-up unit, then units until the
// time is up, never fewer than minUnits. Passing the standalone probes'
// results makes it the traced pass: every second unit records spans (the
// untraced ones in between give the overhead), the units get half the time
// (the probes had the other half), and the per-layer metrics are reported.
func runWorkload(name string, seed int64, seconds float64, quick bool, probed *probeResults) (*result, error) {
	w, err := findWorkload(name)
	if err != nil {
		return nil, err
	}
	tmp, cleanup, err := scratchDir()
	if err != nil {
		return nil, err
	}
	defer cleanup()
	start := time.Now()
	traced := probed != nil
	minUnits, sz, budget := 7, fullSizes, seconds
	if quick {
		minUnits, sz = 2, quickSizes
	}
	if traced {
		budget = seconds / 2 // the probes had the other half
	}
	res := &result{Workload: name, Traced: traced, Quick: quick, Seconds: seconds, Metrics: map[string]metricValue{}}

	tr := newTracer()
	accs := map[uint64]float64{}
	var units, tracedUnits []unit
	for i := 0; ; i++ {
		// Every unit starts from a collected heap, so one unit's garbage is
		// not the next unit's GC pause.
		runtime.GC()
		env := &runEnv{seed: seed, sizes: sz, tmp: tmp, unitIdx: i, accs: accs}
		if i == 0 {
			env.sizes = sz.warmUp()
		}
		if traced && i%2 == 1 {
			env.tr = tr
			tr.unit = i
		}
		u, err := w.run(env)
		if err != nil {
			return nil, fmt.Errorf("%s unit %d: %w", name, i, err)
		}
		res.Checks = append(res.Checks, checkUnit(w, i, &u, i > 0 && !quick)...)
		if i == 0 {
			continue // warm-up: caches, pools and the heap settle
		}
		res.Attempted += u.attempted
		res.Failed += u.failed
		if env.tr != nil {
			tracedUnits = append(tracedUnits, u)
		} else {
			units = append(units, u)
		}
		elapsed := time.Since(start).Seconds()
		perUnit := elapsed / float64(i+1)
		if len(units)+len(tracedUnits) >= minUnits && elapsed+perUnit/2 >= budget {
			break
		}
	}
	if w.sim {
		res.Checks = append(res.Checks, checkRepeatable(append(append([]unit(nil), units...), tracedUnits...))...)
	}
	res.Correct = true
	for _, c := range res.Checks {
		res.Correct = res.Correct && c.OK
	}
	res.Env = readEnv(seed, len(units), len(tracedUnits))
	if traced {
		res.Spans = tr.finish()
		layerMetrics(res, w, units, tracedUnits, probed)
	} else {
		endToEndMetrics(res, units)
	}
	return res, nil
}

func perUnit(units []unit, f func(u *unit) float64) []float64 {
	out := make([]float64, len(units))
	for i := range units {
		out[i] = f(&units[i])
	}
	return out
}

func endToEndMetrics(res *result, units []unit) {
	// report books one metric: its per-unit samples, their quartiles for the
	// noise guard, and the reported value — the samples' median unless given.
	report := func(def metricDef, f func(u *unit) float64, value ...float64) {
		v := perUnit(units, f)
		s := summarize(v)
		m := metricValue{Value: s.Median, Unit: def.Unit, Q1: s.Q1, Q3: s.Q3, N: s.N, Samples: v, Noisy: def.Timing && s.spread() > def.Bound}
		if len(value) > 0 {
			m.Value = value[0]
		}
		res.Metrics[def.Name] = m
	}
	// Rounds are many and alike within a pass, so the reported p50 pools them.
	var rounds []float64
	for i := range units {
		rounds = append(rounds, units[i].roundMs...)
	}
	for _, def := range endToEnd {
		switch def.Name {
		case "setup_s":
			report(def, func(u *unit) float64 { return u.setupS })
		case "commits_per_s":
			report(def, func(u *unit) float64 { return float64(u.commits) / u.wallS })
		case "samples_per_s":
			report(def, func(u *unit) float64 { return float64(u.samples) / u.wallS })
		case "round_ms_p50":
			report(def, func(u *unit) float64 { return median(u.roundMs) }, median(rounds))
		case "final_acc":
			report(def, func(u *unit) float64 { return u.finalAcc })
		case "uplink_bytes_per_commit":
			report(def, func(u *unit) float64 { return float64(u.upBytes) / float64(u.commits) })
		case "downlink_bytes_per_commit":
			report(def, func(u *unit) float64 { return float64(u.downBytes) / float64(u.commits) })
		case "peak_rss_mb":
			res.Metrics[def.Name] = metricValue{Value: peakRSSMB(), Unit: def.Unit, N: 1}
		}
	}
}

// checkUnit is the correctness every unit must pass, the warm-up included;
// floor is off for units too short to reach the accuracy floor (the warm-up,
// and every unit at toy size).
func checkUnit(w workload, i int, u *unit, floor bool) []check {
	tag := func(s string) string { return fmt.Sprintf("unit%d.%s", i, s) }
	ok := func(name string, cond bool, format string, args ...any) check {
		c := check{Name: tag(name), OK: cond}
		if !cond {
			c.Detail = fmt.Sprintf(format, args...)
		}
		return c
	}
	return []check{
		ok("commits_exact", u.exact && u.commits > 0, "%d commits, versions not strictly 1..N or count off", u.commits),
		ok("weights_finite", u.finite, "final weights hold NaN or Inf"),
		ok("uplink_bytes", u.upBytes == u.wantUp, "UplinkBytes %d, want clients × encoded size = %d", u.upBytes, u.wantUp),
		ok("final_acc_floor", !floor || u.finalAcc >= accFloor[w.name], "final_acc %.4f below floor %.2f", u.finalAcc, accFloor[w.name]),
		ok("slots", u.attempted > 0 && u.failed >= 0 && u.failed <= u.attempted, "%d failed of %d attempted", u.failed, u.attempted),
	}
}

// checkRepeatable: simulated units of one seed are bit-identical.
func checkRepeatable(units []unit) []check {
	c := check{Name: "sim_units_identical", OK: true}
	for i := range units {
		a, b := &units[0], &units[i]
		if a.checksum != b.checksum || a.finalAcc != b.finalAcc || a.simTargetS != b.simTargetS ||
			a.upBytes != b.upBytes || a.downBytes != b.downBytes || a.commits != b.commits {
			c.OK = false
			c.Detail = fmt.Sprintf("unit %d differs from unit 1: checksum %x vs %x, final_acc %v vs %v", i+1, b.checksum, a.checksum, b.finalAcc, a.finalAcc)
		}
	}
	return []check{c}
}

func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, _ := strconv.ParseFloat(strings.Fields(rest)[0], 64) //nolint:errcheck // 0 on a malformed line
			return kb / 1024
		}
	}
	return 0
}

func readEnv(seed int64, units, traced int) envBlock {
	e := envBlock{CPU: "unknown", NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), Go: runtime.Version(), Commit: "unknown", Seed: seed, Units: units, Traced: traced}
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if rest, ok := strings.CutPrefix(line, "model name"); ok {
				e.CPU = strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(rest), ":"))
				break
			}
		}
	}
	if out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output(); err == nil {
		e.Commit = strings.TrimSpace(string(out))
	}
	return e
}

// layerMetrics fills the per-layer metrics of a traced pass.
func layerMetrics(res *result, w workload, plain, traced []unit, probed *probeResults) {
	put := func(name string, v float64) {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
		}
		res.Metrics[name] = metricValue{Value: v, Unit: unitOf(name)}
	}
	for name, v := range probed.value {
		put(name, v)
	}
	all := append(append([]unit(nil), plain...), traced...)
	med := func(f func(u *unit) float64) float64 { return median(perUnit(all, f)) }
	put("sim.time_to_target_s", med(func(u *unit) float64 { return u.simTargetS }))
	put("runtime.alloc_mb_per_commit", med(func(u *unit) float64 { return u.allocMB / float64(u.commits) }))
	put("runtime.mallocs_per_commit", med(func(u *unit) float64 { return float64(u.mallocs) / float64(u.commits) }))
	put("runtime.gc_cycles", med(func(u *unit) float64 { return float64(u.gcCycles) }))
	put("runtime.gc_cpu_share", med(func(u *unit) float64 { return u.gcCPUS / u.cpuS }))

	var rounds, stale []float64
	minShare := 1.0
	for i := range all {
		u := &all[i]
		rounds = append(rounds, u.roundMs...)
		stale = append(stale, u.staleness...)
		for _, c := range u.tierCommits {
			minShare = math.Min(minShare, float64(c)/float64(u.commits))
		}
	}
	put("trace.round_ms_p95", percentile(rounds, 0.95))
	put("trace.staleness_p50", median(stale))
	put("trace.staleness_max", percentile(stale, 1))
	put("trace.tier_commit_share_min", minShare)

	cps := func(us []unit) float64 {
		return median(perUnit(us, func(u *unit) float64 { return float64(u.commits) / u.wallS }))
	}
	put("trace.overhead_pct", 100*(cps(plain)-cps(traced))/cps(plain))

	var sh shares
	if w.sim {
		sh = simShares(traced, probed.cpu)
		u := &all[0]
		put("trace.dense_fallback_share", float64(u.denseFallbacks)/math.Max(1, float64(u.broadcasts)))
	} else {
		sh = socketShares(res.Spans, traced, probed.cpu, put)
	}
	put("trace.train_share", sh.train)
	put("trace.wire_share", sh.wire)
	put("trace.codec_share", sh.codec)
	put("trace.agg_self_share", sh.agg)
	put("trace.eval_select_share", sh.evalSelect)
	put("trace.unattributed_share", sh.unattributed)

	// Parallel efficiency: the share of the box's core-seconds the unit
	// turned into training, at the standalone cost of a client round.
	u := &all[0]
	put("trace.parallel_efficiency", float64(u.attempted-u.failed)*probed.cpu[u.clientRoundProbe]/
		(med(func(u *unit) float64 { return u.wallS })*float64(runtime.GOMAXPROCS(0))))
	for _, d := range workloadMetrics {
		if _, ok := res.Metrics[d.Name]; !ok {
			put(d.Name, 0)
		}
	}
}

func unitOf(name string) string {
	for _, d := range workloadMetrics {
		if d.Name == name {
			return d.Unit
		}
	}
	for _, p := range probes {
		if p.name == name {
			return p.unit
		}
	}
	return ""
}

// shares are fractions of a pass's summed span self time; they sum to 1.
type shares struct{ train, wire, codec, agg, evalSelect, unattributed float64 }

func (s *shares) divide(whole float64) {
	if whole <= 0 {
		return
	}
	for _, p := range []*float64{&s.train, &s.wire, &s.codec, &s.agg, &s.evalSelect, &s.unattributed} {
		*p /= whole
	}
}

// socketShares reads the shares off the recorded spans: worker.train, wire
// reads and writes and weight (de)serialisation, codec calls, and per commit
// the part of the tier's cycle its children leave uncovered. The timed
// phase's own self time — what no commit span covers — is unattributed.
//
// The aggregator's own codec and weight-format calls (chain advance, update
// decode, snapshot encode) have no seam, so they sit inside that uncovered
// part. Their counts are known from the result log, so — as for the sims —
// count × standalone probe time is moved out of agg_self into the layer
// that did the work.
func socketShares(spans []*span, traced []unit, cpu map[string]float64, put func(name string, v float64)) shares {
	var trainMs, blockedMs []float64
	var rd, wr, dense, bcasts float64
	for _, s := range spans {
		switch s.Name {
		case "worker.train":
			trainMs = append(trainMs, s.dur()*1e3)
		case "wire.blocked":
			blockedMs = append(blockedMs, s.dur()*1e3)
		case "wire.read":
			rd += float64(s.Bytes)
			bcasts++
			if len(traced) > 0 && s.Bytes >= int64(8*traced[0].denseDim) {
				dense++
			}
		case "wire.write":
			wr += float64(s.Bytes)
		}
	}
	n := math.Max(1, float64(len(traced)))
	put("trace.train_ms_p50", median(trainMs))
	put("trace.wire_blocked_ms_p50", median(blockedMs))
	put("trace.wire_mb_read", rd/1e6/n)
	put("trace.wire_mb_written", wr/1e6/n)
	put("trace.dense_fallback_share", dense/math.Max(1, bcasts))

	st := selfTimes(spans)
	sh := shares{train: st[layerTrain], wire: st[layerWire], codec: st[layerCodec], agg: st[layerAgg], unattributed: st["unattributed"]}
	for i := range traced {
		o := traced[i].aggOps
		bytes := 8 * float64(o.dim)
		codec := bytes * (float64(o.chainEncodes)*cpu["compress.chain_int8_encode_mb_s"] +
			float64(o.applies)*cpu["compress.apply_delta_int8_mb_s"] +
			float64(o.decodes)*cpu["compress.int8_decode_mb_s"])
		wire := bytes * (float64(o.denseEncodes)*cpu["nn.encode_weights_mb_s"] + float64(o.denseDecodes)*cpu["nn.decode_weights_mb_s"])
		if moved := codec + wire; moved > sh.agg {
			codec, wire = codec*sh.agg/moved, wire*sh.agg/moved
		}
		sh.agg -= codec + wire
		sh.codec += codec
		sh.wire += wire
	}
	sh.divide(sh.train + sh.wire + sh.codec + sh.agg + sh.unattributed)
	return sh
}

// simShares estimates the shares of a simulated unit: its result log says how
// many client rounds, evaluated samples, codec calls, FedAvgs, commit mixes
// and selector calls it made, the standalone probes say what one of each
// costs, and the unit's CPU time is the whole. What the estimate leaves over
// is unattributed — the honest size of what in-program spans still have to
// cover.
func simShares(units []unit, cpu map[string]float64) shares {
	var sh shares
	if len(units) == 0 {
		return sh
	}
	u, o := &units[0], units[0].ops
	bytes := func(dim int) float64 { return 8 * float64(dim) }
	sh.train = float64(u.attempted-u.failed) * cpu[u.clientRoundProbe]
	sh.evalSelect = float64(o.evalSamples)*cpu[o.evalProbe] +
		float64(o.selects)*cpu[o.selectProbe] +
		float64(o.observes)*cpu["tiering.observe_ns"] +
		float64(o.retiers)*cpu["tiering.maybe_retier_us"]
	sh.codec = bytes(o.codecDim) * (float64(o.codecEncodes)*cpu["compress.int8_encode_mb_s"] + float64(o.codecDecodes)*cpu["compress.int8_decode_mb_s"])
	sh.agg = float64(o.fedavgs)*float64(o.fedavgK)*bytes(o.fedavgDim)*cpu["flcore.fedavg_gb_s"] +
		float64(o.mixes)*2*bytes(o.fedavgDim)*cpu["flcore.commitmix_gb_s"]
	sum := sh.train + sh.evalSelect + sh.codec + sh.agg
	// A probe that has the box to itself can undercut a contended run, never
	// the other way round; if the estimates still overshoot, they are the whole.
	whole := math.Max(median(perUnit(units, func(u *unit) float64 { return u.cpuS })), sum)
	sh.unattributed = whole - sum
	sh.divide(whole)
	return sh
}
