// Package core implements TiFL's primary contribution: the profiling and
// tiering module (Section 4.2), the static tier-selection policies of the
// straw-man proposal (Section 4.3, Table 1), and the adaptive tier-selection
// algorithm (Section 4.4, Algorithm 2).
//
// The pieces compose with the vanilla FL substrate (internal/flcore)
// through the Selector interface: the engine's training loop is untouched,
// matching the paper's claim that TiFL "simply regulates client selection
// without intervening the underlying training process".
package core

import (
	"fmt"
	"math/rand"
	"sort"

	"repro/internal/flcore"
	"repro/internal/simres"
)

// ProfilerConfig controls the lightweight profiling pass of Section 4.2.
type ProfilerConfig struct {
	// SyncRounds is the number of profiling rounds (sync_rounds in the
	// paper).
	SyncRounds int
	// Tmax is the per-round acknowledgement timeout in seconds; clients
	// that exceed it have Tmax (not their true latency) added to their
	// accumulated response time.
	Tmax float64
	// Epochs is the local epochs per profiling task (matches training).
	Epochs int
	// Seed drives the latency jitter so profiling is reproducible.
	Seed int64
}

// DefaultProfiler profiles for 5 rounds with a generous 1000 s timeout.
var DefaultProfiler = ProfilerConfig{SyncRounds: 5, Tmax: 1000, Epochs: 1, Seed: 1}

// ProfileResult holds per-client mean response latencies and the clients
// excluded as dropouts (those that timed out in every profiling round).
type ProfileResult struct {
	// Latency maps client index to mean observed response latency.
	Latency map[int]float64
	// Dropouts lists clients with accumulated latency ≥ SyncRounds·Tmax.
	Dropouts []int
}

// Profile measures every client's training response latency over
// cfg.SyncRounds rounds, per Section 4.2: each round every client runs the
// profiling task; responses later than Tmax are clipped to Tmax, and
// clients that always time out are excluded as dropouts.
func Profile(clients []*flcore.Client, lm simres.LatencyModel, cfg ProfilerConfig) *ProfileResult {
	if cfg.SyncRounds <= 0 || cfg.Tmax <= 0 {
		panic(fmt.Sprintf("core: invalid profiler config %+v", cfg))
	}
	rt := make([]float64, len(clients))
	rng := rand.New(rand.NewSource(cfg.Seed))
	for r := 0; r < cfg.SyncRounds; r++ {
		for i, c := range clients {
			lat := lm.Latency(c.CPU, c.NumSamples(), cfg.Epochs, rng)
			if lat > cfg.Tmax {
				lat = cfg.Tmax
			}
			rt[i] += lat
		}
	}
	res := &ProfileResult{Latency: make(map[int]float64, len(clients))}
	limit := float64(cfg.SyncRounds) * cfg.Tmax
	for i := range clients {
		if rt[i] >= limit {
			res.Dropouts = append(res.Dropouts, i)
			continue
		}
		res.Latency[i] = rt[i] / float64(cfg.SyncRounds)
	}
	return res
}

// Tier is one latency group: the clients whose profiled response latencies
// fell into the same bin, with the bin's mean latency. Tiers are ordered
// fastest first, so Tiers[0] is "tier 1" in the paper's numbering.
type Tier struct {
	ID          int
	Members     []int
	MeanLatency float64
}

// TieringStrategy selects how the latency histogram is split into tiers.
type TieringStrategy int

const (
	// EqualWidth splits the latency range [min, max] into m equal-width
	// bins — the paper's histogram construction. Bins that receive no
	// clients are dropped.
	EqualWidth TieringStrategy = iota
	// Quantile splits clients into m equal-count groups by latency order;
	// an ablation alternative that guarantees balanced tier sizes.
	Quantile
)

// BuildTiers groups profiled clients into at most m tiers by response
// latency and returns them ordered fastest to slowest. Degenerate inputs
// collapse to non-empty tiers instead of emitting empty ones: with fewer
// profiled clients than tiers the effective tier count is capped at the
// client count (so Quantile yields exactly min(m, n) singleton-or-larger
// tiers), duplicate latencies merge into shared bins, and an empty profile
// returns nil — callers that require at least one tier (tifl.New, the
// tiering Manager) check for that before training starts.
func BuildTiers(latency map[int]float64, m int, strategy TieringStrategy) []Tier {
	if m <= 0 {
		panic(fmt.Sprintf("core: tier count %d", m))
	}
	if len(latency) == 0 {
		return nil
	}
	if m > len(latency) {
		m = len(latency)
	}
	type cl struct {
		id  int
		lat float64
	}
	all := make([]cl, 0, len(latency))
	for id, l := range latency {
		all = append(all, cl{id, l})
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].lat != all[j].lat {
			return all[i].lat < all[j].lat
		}
		return all[i].id < all[j].id
	})

	var groups [][]cl
	switch strategy {
	case EqualWidth:
		lo, hi := all[0].lat, all[len(all)-1].lat
		width := (hi - lo) / float64(m)
		groups = make([][]cl, m)
		for _, c := range all {
			bin := m - 1
			if width > 0 {
				bin = int((c.lat - lo) / width)
				if bin >= m {
					bin = m - 1
				}
			}
			groups[bin] = append(groups[bin], c)
		}
	case Quantile:
		groups = make([][]cl, m)
		n := len(all)
		for i, c := range all {
			bin := i * m / n
			groups[bin] = append(groups[bin], c)
		}
	default:
		panic(fmt.Sprintf("core: unknown tiering strategy %d", strategy))
	}

	var tiers []Tier
	for _, g := range groups {
		if len(g) == 0 {
			continue
		}
		t := Tier{ID: len(tiers)}
		sum := 0.0
		for _, c := range g {
			t.Members = append(t.Members, c.id)
			sum += c.lat
		}
		t.MeanLatency = sum / float64(len(g))
		tiers = append(tiers, t)
	}
	return tiers
}

// TierLatencies returns the mean response latency of each tier in order —
// the L_tier_i inputs of the training-time estimation model (Eq. 6).
func TierLatencies(tiers []Tier) []float64 {
	out := make([]float64, len(tiers))
	for i, t := range tiers {
		out[i] = t.MeanLatency
	}
	return out
}

// TierOf returns a map from client index to tier index.
func TierOf(tiers []Tier) map[int]int {
	out := make(map[int]int)
	for ti, t := range tiers {
		for _, c := range t.Members {
			out[c] = ti
		}
	}
	return out
}

// sampleClients draws want distinct clients uniformly from members; if the
// tier is smaller than want it returns all members (the paper sizes tiers
// so n_j > |C|, but small testbeds may violate that).
func sampleClients(members []int, want int, rng *rand.Rand) []int {
	if want >= len(members) {
		return append([]int(nil), members...)
	}
	perm := rng.Perm(len(members))
	out := make([]int, want)
	for i := 0; i < want; i++ {
		out[i] = members[perm[i]]
	}
	return out
}

// PickTier draws a tier index from the probability vector probs.
func PickTier(probs []float64, rng *rand.Rand) int {
	x := rng.Float64()
	acc := 0.0
	for i, p := range probs {
		acc += p
		if x < acc {
			return i
		}
	}
	return len(probs) - 1 // guard against rounding
}
