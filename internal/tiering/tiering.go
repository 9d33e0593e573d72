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
//     its last placement value until it has moved by more than 20 %
//     (hysteresis), so a single outlier round cannot shuffle membership.
//   - Cohort draws each tier round's participants with the same
//     (seed, tier round, tier) keying as flcore.TierCohort, so a Manager
//     with re-tiering disabled reproduces the static engines exactly.
//     With Adaptive selection on, cohort sizes follow Algorithm 2
//     (core.AdaptiveState): tier probabilities driven by the accuracies
//     the sim supplies via ObserveAccuracy scale each tier's
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

	// Adaptive enables Algorithm-2 selection: tier probabilities from
	// accuracy feedback scale cohort sizes under per-tier credits. Only
	// the sim feeds accuracies, so only the sim runs an adaptive Manager.
	Adaptive bool
	// Credits is the per-tier boosted-round budget Credits_t; 0 or
	// negative means unlimited (credits never bind).
	Credits int
}

func (c Config) withDefaults() Config {
	if c.EWMABeta == 0 {
		c.EWMABeta = 0.5
	}
	return c
}

// hysteresis is the relative EWMA move a client needs before its tracked
// latency can affect a rebuild.
const hysteresis = 0.2

func (c Config) strategy() core.TieringStrategy {
	if c.EqualWidth {
		return core.EqualWidth
	}
	return core.Quantile
}

// Manager owns tier membership, latency estimates, and tier selection for
// one training run. Construct with NewManager; the zero value is unusable.
type Manager struct {
	cfg Config

	mu     sync.Mutex
	tiers  [][]int     // members per tier, ascending client ID
	tierOf map[int]int // client → tier index
	ewma   map[int]float64
	placed map[int]float64 // hysteresis-frozen latency of last placement

	alg2 *core.AdaptiveState // Algorithm 2's probabilities and credits; nil unless Adaptive

	retiers     int // rebuilds that moved at least one client
	rebuilds    int // rebuild points reached (including no-ops)
	skipped     int // rebuilds skipped on degenerate estimates
	lastVersion int // last version MaybeRetier acted on (idempotency)
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
		cfg:    cfg,
		tierOf: make(map[int]int, len(latency)),
		ewma:   make(map[int]float64, len(latency)),
		placed: make(map[int]float64, len(latency)),
	}
	if cfg.Adaptive {
		m.alg2 = core.NewAdaptiveState(len(built), cfg.Credits, 0)
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

// Observe folds one observed response latency into the client's EWMA.
// Unknown clients (late joiners) are adopted at the observed value but do
// not enter a tier until the next rebuild.
func (m *Manager) Observe(client int, seconds float64) {
	if seconds <= 0 || math.IsNaN(seconds) || math.IsInf(seconds, 0) {
		return // clock glitches and zero reports must not poison EWMAs
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	prev, ok := m.ewma[client]
	if !ok {
		m.ewma[client] = seconds
		return
	}
	m.ewma[client] = (1-m.cfg.EWMABeta)*prev + m.cfg.EWMABeta*seconds
}

// Adaptive reports whether cohorts follow Algorithm 2 (Config.Adaptive).
func (m *Manager) Adaptive() bool { return m.alg2 != nil }

// ObserveAccuracy records per-tier test accuracies (index = tier, NaN for
// tiers without data) and recomputes the Algorithm-2 selection
// probabilities from them. A non-adaptive Manager ignores them.
func (m *Manager) ObserveAccuracy(accs []float64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.alg2 == nil || len(accs) != len(m.tiers) {
		return
	}
	m.alg2.Reweight(accs)
}

// Cohort draws tier t's participants for its local round r. want ≤ 0 uses
// the configured ClientsPerRound. The draw is flcore.TierCohort's
// (seed, tier round, tier) keying over the tier's current members; with
// Adaptive on, its size is core.AdaptiveState.CohortSize: each boosted
// round consumes one credit, so Credits_t bounds the extra participation a
// struggling tier can claim.
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
	if m.alg2 != nil {
		size = m.alg2.CohortSize(tier, want, len(members))
	}
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
		if math.Abs(est-base) > hysteresis*base {
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
	return copyTiers(next), moves, true
}

// String describes the Manager configuration and current state.
func (m *Manager) String() string {
	m.mu.Lock()
	defer m.mu.Unlock()
	return fmt.Sprintf("tiering.Manager(tiers=%d, retierEvery=%d, beta=%.2f, hysteresis=%.2f, adaptive=%v, retiers=%d)",
		len(m.tiers), m.cfg.RetierEvery, m.cfg.EWMABeta, hysteresis, m.alg2 != nil, m.retiers)
}

var _ flcore.TierManager = (*Manager)(nil)
