// Package simres models the heterogeneous client resources of the TiFL
// testbed: CPU allocations per client group, a deterministic latency model
// mapping (CPU share, samples trained) to response latency, and a virtual
// clock that accumulates simulated training time.
//
// The paper's testbed pins each client group to a CPU fraction (e.g. 4 / 2 /
// 1 / 0.5 / 0.1 CPUs for CIFAR-10) and measures wall-clock response latency.
// Here latency is computed from the same inputs that drive the real number —
// samples × per-sample cost / CPU share + communication overhead + bounded
// jitter — so the quantities the paper reports (per-round time = max over
// selected clients, Eq. 1; total time = Σ round times) reproduce with the
// same ratios without needing a cluster.
package simres

import (
	"fmt"
	"math"
	"math/rand"
)

// CPU allocations per client group from Section 5.1 of the paper.
var (
	// GroupsMNIST: MNIST and Fashion-MNIST clients get 2, 1, 0.75, 0.5,
	// 0.25 CPUs per group.
	GroupsMNIST = []float64{2, 1, 0.75, 0.5, 0.25}
	// GroupsCIFAR: CIFAR-10 and FEMNIST clients get 4, 2, 1, 0.5, 0.1 CPUs.
	GroupsCIFAR = []float64{4, 2, 1, 0.5, 0.1}
	// GroupsCaseStudy: the Section 3 heterogeneity case study uses
	// 4, 2, 1, 1/3, 1/5 CPUs.
	GroupsCaseStudy = []float64{4, 2, 1, 1.0 / 3, 1.0 / 5}
)

// LatencyModel converts a client's resources and workload into a response
// latency in (simulated) seconds.
type LatencyModel struct {
	// CostPerSample is single-CPU compute seconds per trained sample.
	CostPerSample float64
	// CommLatency is the fixed per-round communication overhead in seconds
	// (model download + upload).
	CommLatency float64
	// CommPerParam adds model-size-dependent transfer time: seconds per
	// model parameter (down + up) at bandwidth scale 1.0. Zero disables
	// size-dependent communication (the calibrated default).
	CommPerParam float64
	// JitterFrac adds uniform multiplicative noise in
	// [1-JitterFrac, 1+JitterFrac]; real clients never produce identical
	// latencies twice.
	JitterFrac float64
}

// DefaultModel is calibrated so the Fig. 1a grid (500–5000 samples on
// 4–0.2 CPUs) spans roughly 2–250 s/round like the paper's log-scale plot.
var DefaultModel = LatencyModel{CostPerSample: 0.01, CommLatency: 0.5, JitterFrac: 0.05}

// Latency returns the response latency for one training round on a client
// with the given CPU share training `samples` samples for `epochs` local
// epochs. rng supplies jitter; pass nil for a deterministic result.
func (m LatencyModel) Latency(cpu float64, samples, epochs int, rng *rand.Rand) float64 {
	return m.LatencyFull(cpu, samples, epochs, 0, 1, rng)
}

// sanitizeBandwidth maps every degenerate relative link speed — zero,
// negative, NaN, ±Inf — to the nominal 1.0. An unset Client.Bandwidth is
// zero, and a zero (or NaN) slipping into the latency division would
// produce infinite or NaN round latencies that poison the simulated clock.
func sanitizeBandwidth(bandwidth float64) float64 {
	if bandwidth <= 0 || math.IsNaN(bandwidth) || math.IsInf(bandwidth, 1) {
		return 1
	}
	return bandwidth
}

// denseRoundTripBytes is the dense wire cost of one model parameter per
// round: 8 bytes down (aggregator → client) plus 8 bytes back up.
// CommPerParam is calibrated against this dense round trip, which is what
// makes the byte-based path (LatencyBytes) and the parameter-based path
// (LatencyFull) charge identically for uncompressed transfers.
const denseRoundTripBytes = 16

// CommSeconds returns the model-transfer term for moving totalBytes
// (download + upload combined) over a link with the given relative
// bandwidth: CommPerParam/16 seconds per byte at bandwidth 1.0.
func (m LatencyModel) CommSeconds(totalBytes int, bandwidth float64) float64 {
	return m.CommPerParam * (float64(totalBytes) / denseRoundTripBytes) / sanitizeBandwidth(bandwidth)
}

// LatencyFull extends Latency with model-size-dependent communication:
// params is the model's parameter count and bandwidth the client's relative
// link speed (1.0 nominal, 0.1 a 10x slower link; zero, negative, or
// non-finite values are treated as 1.0). The paper's resource heterogeneity
// covers both "computation and communication capacity"; CPU share drives
// the first term and bandwidth the second.
func (m LatencyModel) LatencyFull(cpu float64, samples, epochs, params int, bandwidth float64, rng *rand.Rand) float64 {
	return m.LatencyBytes(cpu, samples, epochs, denseRoundTripBytes*params, bandwidth, rng)
}

// LatencyBytes is the compressed-update path of the latency model: instead
// of charging CommPerParam for a dense parameter round trip, it charges for
// the actual encoded transfer size — totalBytes is download plus upload as
// they go over the wire (e.g. a dense model down plus a top-k sparsified
// update back). LatencyFull(params) ≡ LatencyBytes(16·params).
func (m LatencyModel) LatencyBytes(cpu float64, samples, epochs, totalBytes int, bandwidth float64, rng *rand.Rand) float64 {
	lat := m.base(cpu, samples, epochs, totalBytes, bandwidth)
	if m.JitterFrac > 0 && rng != nil {
		lat *= 1 + m.JitterFrac*(2*rng.Float64()-1)
	}
	return lat
}

// LatencyFloor is a lower bound on every LatencyBytes draw for a transfer
// of at least totalBytes, known before the draw: the jitter-free base times
// 1 − JitterFrac, both rounded as LatencyBytes rounds them. It holds in
// floating point, not just in the reals, for a model that passes Validate:
// the jitter factor 1 + J·(2u − 1) rounds to no less than 1 − J for u in
// [0, 1), the base grows with the byte count, and a product of
// non-negative operands rounds monotonically.
func (m LatencyModel) LatencyFloor(cpu float64, samples, epochs, totalBytes int, bandwidth float64) float64 {
	lat := m.base(cpu, samples, epochs, totalBytes, bandwidth)
	if m.JitterFrac > 0 {
		lat *= 1 - m.JitterFrac
	}
	return lat
}

// base is the jitter-free latency LatencyBytes and LatencyFloor share.
func (m LatencyModel) base(cpu float64, samples, epochs, totalBytes int, bandwidth float64) float64 {
	if cpu <= 0 {
		panic(fmt.Sprintf("simres: cpu share %v must be positive", cpu))
	}
	compute := m.CostPerSample * float64(samples*epochs) / cpu
	comm := m.CommLatency + m.CommSeconds(totalBytes, bandwidth)
	return compute + comm
}

// Validate reports a model that can draw a negative or non-finite latency
// from valid client resources: a JitterFrac outside [0, 1), or a negative
// or non-finite CostPerSample, CommLatency or CommPerParam.
func (m LatencyModel) Validate() error {
	if !(m.JitterFrac >= 0 && m.JitterFrac < 1) {
		return fmt.Errorf("simres: JitterFrac %v outside [0, 1)", m.JitterFrac)
	}
	for _, f := range []struct {
		name string
		v    float64
	}{{"CostPerSample", m.CostPerSample}, {"CommLatency", m.CommLatency}, {"CommPerParam", m.CommPerParam}} {
		if !(f.v >= 0) || math.IsInf(f.v, 1) {
			return fmt.Errorf("simres: %s %v is negative or not finite", f.name, f.v)
		}
	}
	return nil
}

// AssignGroups splits n clients into len(cpus) equal, contiguous groups and
// returns each client's CPU share: clients [0, n/g) get cpus[0], and so on.
// This mirrors the paper's "5 groups with equal clients per group".
func AssignGroups(n int, cpus []float64) []float64 {
	g := len(cpus)
	if g == 0 || n%g != 0 {
		panic(fmt.Sprintf("simres: %d clients not divisible into %d groups", n, g))
	}
	out := make([]float64, n)
	per := n / g
	for i := range out {
		out[i] = cpus[i/per]
	}
	return out
}

// AssignGroupsRandom assigns each of n clients a CPU share drawn uniformly
// from cpus, the scheme the paper uses when extending LEAF ("resource
// assignment ... through uniform random distribution resulting in equal
// number of clients per hardware type" — we shuffle a balanced assignment).
func AssignGroupsRandom(n int, cpus []float64, rng *rand.Rand) []float64 {
	g := len(cpus)
	if g == 0 {
		panic("simres: no CPU groups")
	}
	out := make([]float64, n)
	for i := range out {
		out[i] = cpus[i%g] // balanced counts per hardware type
	}
	rng.Shuffle(n, func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// Clock is a virtual clock measuring simulated seconds of federated
// training. The engine advances it by each round's latency (the max over
// selected clients, Eq. 1 in the paper).
type Clock struct {
	now float64
}

// Now returns the current simulated time in seconds.
func (c *Clock) Now() float64 { return c.now }

// Advance moves the clock forward by d seconds; d must be non-negative.
func (c *Clock) Advance(d float64) {
	if d < 0 {
		panic(fmt.Sprintf("simres: negative clock advance %v", d))
	}
	c.now += d
}

// Reset rewinds the clock to zero.
func (c *Clock) Reset() { c.now = 0 }
