// Package tiering is the live tier-management subsystem: one Manager owns
// tier membership for a whole training run, and is the repository's one
// implementation of online re-tiering (per-client EWMA fold + periodic
// rebuild).
//
// TiFL's Section 4.2 profiling is a one-shot snapshot, but the paper
// sketches an online version in which profiling and tiering refresh
// periodically so drifting clients migrate to the right tier; the
// follow-up literature (FedAT, Dynamic Tiering, FedDCT) places most of the
// achievable speedup in exactly that migration. The Manager implements it
// for both tiered-async engines behind the flcore.TierManager contract,
// and for the synchronous engine through Selector:
//
//   - Engines feed every committed tier round's observed per-client
//     latencies into Observe, which folds them into per-client EWMA
//     estimates (weight EWMABeta on the new observation).
//   - Every RetierEvery global commits, MaybeRetier rebuilds the tiers
//     from the EWMA estimates via core.BuildTiers. Hysteresis damps
//     thrash: a client's tracked latency participates in the rebuild at
//     its last placement value until it has moved by more than the
//     Hysteresis fraction, so a single outlier round cannot shuffle
//     membership.
//   - Cohort draws each tier round's participants with the same
//     (seed, tier round, tier) keying as flcore.TierCohort, so a Manager
//     with re-tiering disabled reproduces the static engines exactly.
//     With Adaptive selection on, cohort sizes follow Algorithm 2:
//     accuracy-driven tier probabilities (core.AdaptiveProbs over the
//     accuracies supplied via ObserveAccuracy) scale each tier's
//     participation, under per-tier Credits budgets that bound how many
//     boosted rounds a tier may take.
//
// Every method is deterministic given the same call sequence, which is
// what lets the simulated engine and the socket runtime (whenever their
// commits apply in the same order) keep byte-identical global models
// through a migration. The Manager is safe for concurrent use: every
// engine's flcore.Committer makes the Cohort/Observe/MaybeRetier calls
// from its one committer goroutine, while metrics endpoints and
// supervisors read membership and estimates from theirs.
package tiering

import (
	"fmt"
	"math"
	"sort"
	"sync"

	"repro/internal/core"
	"repro/internal/flcore"
)

// Config parameterizes a Manager.
type Config struct {
	// NumTiers is m, the number of latency tiers to maintain. Degenerate
	// populations (fewer clients than tiers) collapse to fewer tiers at
	// construction; the collapsed count is then maintained for the run.
	NumTiers int
	// RetierEvery rebuilds tiers every k global commits; 0 disables
	// re-tiering (the Manager still tracks EWMAs and drives selection).
	RetierEvery int
	// EWMABeta is the weight of a new latency observation in the running
	// estimate: ewma ← (1−β)·ewma + β·observed. 0 defaults to 0.5.
	EWMABeta float64
	// Hysteresis is the relative EWMA move a client needs before its
	// tracked latency can affect a rebuild (0 defaults to 0.2; negative
	// disables hysteresis entirely).
	Hysteresis float64
	// EqualWidth selects the paper's equal-width histogram split for
	// builds and rebuilds instead of the default balanced Quantile split
	// (which always yields NumTiers non-empty tiers when clients ≥ tiers,
	// so rebuilds are never skipped for collapsing) — mirroring
	// tifl.Options.EqualWidthTiers.
	EqualWidth bool
	// ClientsPerRound is the base cohort size |C| used when Cohort is
	// called with want ≤ 0.
	ClientsPerRound int
	// Seed keys every cohort draw (shared with the engines' seed so sim
	// and socket runs draw identical cohorts).
	Seed int64
	// CommAware switches the EWMA signal from compute-side latency to
	// end-to-end round cost: when an engine reports a full observation
	// through ObserveRound (worker-measured seconds, aggregator-measured
	// end-to-end seconds, wire bytes), the end-to-end value — transfer
	// and queueing included — is what gets folded, so rebuilds rank
	// clients by what a round actually costs, not compute alone. Off by
	// default: the compute-only signal is what the sim-vs-socket parity suite
	// (and every pre-existing run) was calibrated against. Byte EWMAs are
	// tracked either way for observability (CommBytes).
	CommAware bool

	// Adaptive enables Algorithm-2 selection: tier probabilities from
	// accuracy feedback scale cohort sizes under per-tier credits.
	Adaptive bool
	// Credits is the per-tier boosted-round budget Credits_t; 0 or
	// negative means unlimited (credits never bind).
	Credits int
	// Temperature shapes the ChangeProbs rule (core.AdaptiveProbs);
	// 0 defaults to 2.
	Temperature float64
}

func (c Config) withDefaults() Config {
	if c.EWMABeta == 0 {
		c.EWMABeta = 0.5
	}
	if c.Hysteresis == 0 {
		c.Hysteresis = 0.2
	}
	if c.Temperature <= 0 {
		c.Temperature = 2
	}
	return c
}

func (c Config) strategy() core.TieringStrategy {
	if c.EqualWidth {
		return core.EqualWidth
	}
	return core.Quantile
}

// Move is one client migrating between tiers at a rebuild point.
type Move = flcore.TierMove

// Reassignment records one applied rebuild.
type Reassignment struct {
	// Version is the global commit count at which the rebuild happened.
	Version int
	// Moves lists the migrated clients in ascending client order.
	Moves []Move
}

// Manager owns tier membership, latency estimates, and tier selection for
// one training run. Construct with NewManager; the zero value is unusable.
type Manager struct {
	cfg Config

	mu        sync.Mutex
	tiers     [][]int     // members per tier, ascending client ID
	tierOf    map[int]int // client → tier index
	ewma      map[int]float64
	commBytes map[int]float64 // EWMA of per-round wire bytes (observability)
	placed    map[int]float64 // hysteresis-frozen latency of last placement

	probs    []float64 // Algorithm-2 tier probabilities
	haveAccs bool      // accuracies observed at least once
	credits  []int     // remaining boosted-round budget per tier
	draws    []int     // Cohort calls per tier (commit-share fallback)

	retiers     int // rebuilds that moved at least one client
	rebuilds    int // rebuild points reached (including no-ops)
	skipped     int // rebuilds skipped on degenerate estimates
	lastVersion int // last version MaybeRetier acted on (idempotency)
	log         []Reassignment
}

// NewManager builds the Manager over an initial latency profile (client →
// seconds, e.g. core.Profile output or flnet.ProfileWorkers measurements).
func NewManager(cfg Config, latency map[int]float64) (*Manager, error) {
	cfg = cfg.withDefaults()
	if cfg.NumTiers <= 0 {
		return nil, fmt.Errorf("tiering: NumTiers = %d", cfg.NumTiers)
	}
	if cfg.ClientsPerRound <= 0 {
		return nil, fmt.Errorf("tiering: ClientsPerRound = %d", cfg.ClientsPerRound)
	}
	if cfg.EWMABeta <= 0 || cfg.EWMABeta > 1 {
		return nil, fmt.Errorf("tiering: EWMABeta = %v", cfg.EWMABeta)
	}
	if len(latency) == 0 {
		return nil, fmt.Errorf("tiering: empty latency profile")
	}
	built := core.BuildTiers(latency, cfg.NumTiers, cfg.strategy())
	if len(built) == 0 {
		return nil, fmt.Errorf("tiering: no tiers built from %d profiled clients", len(latency))
	}
	cfg.NumTiers = len(built) // degenerate profiles collapse; keep the count
	m := &Manager{
		cfg:       cfg,
		tierOf:    make(map[int]int, len(latency)),
		ewma:      make(map[int]float64, len(latency)),
		commBytes: make(map[int]float64),
		placed:    make(map[int]float64, len(latency)),
		probs:     make([]float64, len(built)),
		draws:     make([]int, len(built)),
	}
	m.tiers = canonical(built)
	for t, members := range m.tiers {
		for _, c := range members {
			m.tierOf[c] = t
		}
	}
	for c, l := range latency {
		m.ewma[c] = l
		m.placed[c] = l
	}
	m.credits = make([]int, len(built))
	for t := range m.probs {
		m.probs[t] = 1 / float64(len(built)) // equal initial probability
		if cfg.Credits > 0 {
			m.credits[t] = cfg.Credits
		} else {
			m.credits[t] = math.MaxInt
		}
	}
	return m, nil
}

// NewManagerWithTiers builds a Manager over explicit initial membership
// (fastest tier first) instead of a full latency profile — the
// population-scale construction path: profiling all N clients of a
// million-client population is exactly the O(N) sweep the scaled engine
// exists to avoid, so the caller supplies membership derived some other way
// (e.g. by id-keyed resource group) plus whatever latency estimates it
// happens to have. latency may be sparse or nil; clients without an entry
// are adopted into the EWMA map at their first Observe, so the Manager's
// per-client bookkeeping stays keyed on ever-selected clients only.
// Rebuilds re-place only clients with latency estimates — everyone else
// keeps their current tier (see MaybeRetier).
func NewManagerWithTiers(cfg Config, tiers [][]int, latency map[int]float64) (*Manager, error) {
	cfg = cfg.withDefaults()
	if cfg.ClientsPerRound <= 0 {
		return nil, fmt.Errorf("tiering: ClientsPerRound = %d", cfg.ClientsPerRound)
	}
	if cfg.EWMABeta <= 0 || cfg.EWMABeta > 1 {
		return nil, fmt.Errorf("tiering: EWMABeta = %v", cfg.EWMABeta)
	}
	if len(tiers) == 0 {
		return nil, fmt.Errorf("tiering: no initial tiers")
	}
	if cfg.NumTiers > 0 && cfg.NumTiers != len(tiers) {
		return nil, fmt.Errorf("tiering: NumTiers %d != %d initial tiers", cfg.NumTiers, len(tiers))
	}
	cfg.NumTiers = len(tiers)
	m := &Manager{
		cfg:       cfg,
		tierOf:    make(map[int]int),
		ewma:      make(map[int]float64, len(latency)),
		commBytes: make(map[int]float64),
		placed:    make(map[int]float64, len(latency)),
		probs:     make([]float64, len(tiers)),
		draws:     make([]int, len(tiers)),
	}
	m.tiers = copyTiers(tiers)
	for t, members := range m.tiers {
		if len(members) == 0 {
			return nil, fmt.Errorf("tiering: initial tier %d is empty", t)
		}
		for _, c := range members {
			if prev, dup := m.tierOf[c]; dup {
				return nil, fmt.Errorf("tiering: client %d in tiers %d and %d", c, prev, t)
			}
			m.tierOf[c] = t
		}
	}
	for c, l := range latency {
		m.ewma[c] = l
		m.placed[c] = l
	}
	m.credits = make([]int, len(tiers))
	for t := range m.probs {
		m.probs[t] = 1 / float64(len(tiers))
		if cfg.Credits > 0 {
			m.credits[t] = cfg.Credits
		} else {
			m.credits[t] = math.MaxInt
		}
	}
	return m, nil
}

// canonical converts built tiers to membership slices, preserving
// core.BuildTiers' deterministic member order (latency, then client ID).
// Keeping that order — rather than re-sorting — is what makes a Manager
// with re-tiering disabled reproduce the static engines' TierCohort draws
// exactly: the draw is a permutation over member positions.
func canonical(tiers []core.Tier) [][]int {
	out := make([][]int, len(tiers))
	for t, tr := range tiers {
		out[t] = append([]int(nil), tr.Members...)
	}
	return out
}

// Tiers returns a copy of the current membership, fastest tier first.
func (m *Manager) Tiers() [][]int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return copyTiers(m.tiers)
}

func copyTiers(tiers [][]int) [][]int {
	out := make([][]int, len(tiers))
	for t, members := range tiers {
		out[t] = append([]int(nil), members...)
	}
	return out
}

// NumTiers returns the maintained tier count.
func (m *Manager) NumTiers() int { return m.cfg.NumTiers }

// TierOf returns a client's current tier.
func (m *Manager) TierOf(client int) (int, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	t, ok := m.tierOf[client]
	return t, ok
}

// EWMA returns the tracked latency estimate for a client.
func (m *Manager) EWMA(client int) (float64, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	v, ok := m.ewma[client]
	return v, ok
}

// Retiers returns how many rebuilds actually moved clients.
func (m *Manager) Retiers() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.retiers
}

// Log returns every applied reassignment in version order.
func (m *Manager) Log() []Reassignment {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]Reassignment, len(m.log))
	for i, r := range m.log {
		out[i] = Reassignment{Version: r.Version, Moves: append([]Move(nil), r.Moves...)}
	}
	return out
}

// Observe folds one observed response latency into the client's EWMA.
// Unknown clients (late joiners) are adopted at the observed value but do
// not enter a tier until the next rebuild.
func (m *Manager) Observe(client int, seconds float64) {
	if seconds <= 0 || math.IsNaN(seconds) || math.IsInf(seconds, 0) {
		return // clock glitches and zero reports must not poison EWMAs
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	m.fold(client, seconds)
}

// fold applies the EWMA update for one validated latency sample. Callers
// hold mu.
func (m *Manager) fold(client int, seconds float64) {
	prev, ok := m.ewma[client]
	if !ok {
		m.ewma[client] = seconds
		return
	}
	m.ewma[client] = (1-m.cfg.EWMABeta)*prev + m.cfg.EWMABeta*seconds
}

// ObserveRound is the full per-round observation (flcore.CommObserver):
// the client's compute-side seconds, the end-to-end response time measured
// at the aggregator, and the wire bytes the round moved for this client.
// With CommAware set, the end-to-end time is what enters the latency EWMA
// — so a fast trainer behind a slow link ranks slow, which is what
// re-tiering should see; otherwise the compute-side seconds are folded
// exactly as Observe would, keeping pre-existing placement behavior.
// Bytes are folded into a separate per-client EWMA (CommBytes) in both
// modes. Non-positive or non-finite values are dropped field by field,
// falling back from end-to-end to seconds when only the former is bad.
func (m *Manager) ObserveRound(client int, seconds, endToEnd float64, bytes int64) {
	lat := seconds
	if m.cfg.CommAware && endToEnd > 0 && !math.IsNaN(endToEnd) && !math.IsInf(endToEnd, 0) {
		lat = endToEnd
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if lat > 0 && !math.IsNaN(lat) && !math.IsInf(lat, 0) {
		m.fold(client, lat)
	}
	if bytes > 0 {
		prev, ok := m.commBytes[client]
		if !ok {
			m.commBytes[client] = float64(bytes)
		} else {
			m.commBytes[client] = (1-m.cfg.EWMABeta)*prev + m.cfg.EWMABeta*float64(bytes)
		}
	}
}

// CommBytes returns the tracked per-round wire-byte estimate for a client.
func (m *Manager) CommBytes(client int) (float64, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	v, ok := m.commBytes[client]
	return v, ok
}

// ObserveAccuracy records per-tier test accuracies (index = tier, NaN for
// tiers without data) and recomputes the Algorithm-2 selection
// probabilities from them.
func (m *Manager) ObserveAccuracy(accs []float64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if len(accs) != len(m.tiers) {
		return
	}
	m.probs = core.AdaptiveProbs(accs, m.cfg.Temperature)
	m.haveAccs = true
}

// Probabilities returns a copy of the current tier-selection probabilities.
func (m *Manager) Probabilities() []float64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return append([]float64(nil), m.currentProbs()...)
}

// currentProbs is the live probability vector: accuracy-driven once
// ObserveAccuracy has fired, otherwise (adaptive runs without evaluation
// data, e.g. over sockets) inverse commit shares — tiers that have drawn
// fewer cohorts get boosted, the credit-relevant dimension. Callers hold mu.
func (m *Manager) currentProbs() []float64 {
	if m.haveAccs || !m.cfg.Adaptive {
		return m.probs
	}
	out := make([]float64, len(m.draws))
	total := 0.0
	for t, d := range m.draws {
		out[t] = 1 / float64(d+1)
		total += out[t]
	}
	for t := range out {
		out[t] /= total
	}
	return out
}

// CreditsRemaining returns a copy of the per-tier credit counters.
func (m *Manager) CreditsRemaining() []int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return append([]int(nil), m.credits...)
}

// Cohort draws tier t's participants for its local round r. want ≤ 0 uses
// the configured ClientsPerRound. The draw is flcore.TierCohort's
// (seed, tier round, tier) keying over the tier's current members; with
// Adaptive on, the size is scaled by the tier's selection probability
// (p_t·m, the uniform-relative boost), clamped to [1, 2·want], and a tier
// whose credits are exhausted is capped back at the uniform size — each
// boosted round consumes one credit, so Credits_t bounds the extra
// participation a struggling tier can claim.
func (m *Manager) Cohort(tier, tierRound, want int) []int {
	m.mu.Lock()
	defer m.mu.Unlock()
	if tier < 0 || tier >= len(m.tiers) {
		return nil
	}
	if want <= 0 {
		want = m.cfg.ClientsPerRound
	}
	members := m.tiers[tier]
	if len(members) == 0 {
		return nil
	}
	size := want
	if m.cfg.Adaptive {
		boost := m.currentProbs()[tier] * float64(len(m.tiers))
		size = int(math.Round(float64(want) * boost))
		if size < 1 {
			size = 1
		}
		if size > 2*want {
			size = 2 * want
		}
		if size > want {
			if m.credits[tier] <= 0 {
				size = want
			} else if m.credits[tier] != math.MaxInt {
				m.credits[tier]--
			}
		}
	}
	m.draws[tier]++
	return flcore.TierCohort(m.cfg.Seed, tierRound, tier, members, size)
}

// MaybeRetier implements the rebuild point: at every RetierEvery-th global
// commit it re-tiers from the hysteresis-filtered EWMA estimates and
// reports the migrations. Rebuilds that would change the tier count
// (clients dropped below the tier count, equal-width collapse) are skipped
// — the engines' tier loops are fixed at construction — as are rebuilds
// that move nobody.
func (m *Manager) MaybeRetier(version int) ([][]int, []flcore.TierMove, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.cfg.RetierEvery <= 0 || version <= 0 || version%m.cfg.RetierEvery != 0 || version == m.lastVersion {
		return nil, nil, false
	}
	m.lastVersion = version
	m.rebuilds++

	// Hysteresis: a client's effective latency stays frozen at its last
	// placement value until the EWMA has moved by more than the threshold.
	eff := make(map[int]float64, len(m.ewma))
	for c, est := range m.ewma {
		base, ok := m.placed[c]
		if !ok {
			base = est // late joiner: adopt at its EWMA
		}
		if m.cfg.Hysteresis < 0 || math.Abs(est-base) > m.cfg.Hysteresis*base {
			base = est
		}
		eff[c] = base
	}

	cand := core.BuildTiers(eff, m.cfg.NumTiers, m.cfg.strategy())
	if len(cand) != m.cfg.NumTiers {
		m.skipped++
		return nil, nil, false
	}
	next := canonical(cand)

	// Members without a latency estimate are not re-placed: they keep
	// their current tier. A full-profile Manager (NewManager) never hits
	// this — every member was profiled — but a sparse Manager over a lazy
	// population (NewManagerWithTiers) only ever hears about selected
	// clients, and a rebuild must not drop the silent majority from
	// membership. Ascending client order keeps the result independent of
	// map iteration order.
	var unseen []int
	for c := range m.tierOf {
		if _, ok := eff[c]; !ok {
			unseen = append(unseen, c)
		}
	}
	sort.Ints(unseen)
	for _, c := range unseen {
		next[m.tierOf[c]] = append(next[m.tierOf[c]], c)
	}

	// Commit the placement latencies the rebuild used, so the next
	// hysteresis window is measured from this placement.
	m.placed = eff

	var moves []flcore.TierMove
	nextOf := make(map[int]int, len(m.tierOf))
	for t, members := range next {
		for _, c := range members {
			nextOf[c] = t
		}
	}
	clients := make([]int, 0, len(nextOf))
	for c := range nextOf {
		clients = append(clients, c)
	}
	sort.Ints(clients)
	for _, c := range clients {
		if old, ok := m.tierOf[c]; ok && old != nextOf[c] {
			moves = append(moves, flcore.TierMove{Client: c, From: old, To: nextOf[c]})
		}
	}
	if len(moves) == 0 {
		return nil, nil, false
	}
	m.tiers = next
	m.tierOf = nextOf
	m.retiers++
	m.log = append(m.log, Reassignment{Version: version, Moves: append([]Move(nil), moves...)})
	return copyTiers(next), moves, true
}

// String describes the Manager configuration and current state.
func (m *Manager) String() string {
	m.mu.Lock()
	defer m.mu.Unlock()
	return fmt.Sprintf("tiering.Manager(tiers=%d, retierEvery=%d, beta=%.2f, hysteresis=%.2f, adaptive=%v, retiers=%d)",
		len(m.tiers), m.cfg.RetierEvery, m.cfg.EWMABeta, m.cfg.Hysteresis, m.cfg.Adaptive, m.retiers)
}

var (
	_ flcore.TierManager  = (*Manager)(nil)
	_ flcore.CommObserver = (*Manager)(nil)
)
