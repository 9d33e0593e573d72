package tiering

import (
	"math"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/flcore"
)

// profile builds an n-client latency map with three latency groups.
func profile(n int) map[int]float64 {
	lat := make(map[int]float64, n)
	for i := 0; i < n; i++ {
		lat[i] = []float64{1, 5, 25}[i%3] + float64(i)*1e-3
	}
	return lat
}

func newTestManager(t *testing.T, cfg Config, lat map[int]float64) *Manager {
	t.Helper()
	m, err := NewManager(cfg, lat)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestManagerInitialTiersPartition(t *testing.T) {
	lat := profile(12)
	m := newTestManager(t, Config{NumTiers: 3, ClientsPerRound: 2, Seed: 1}, lat)
	tiers := m.Tiers()
	if len(tiers) != 3 {
		t.Fatalf("built %d tiers", len(tiers))
	}
	// Membership must match core.BuildTiers exactly, member order
	// included — the static engines' TierCohort draw is a permutation
	// over member positions, so order is part of the contract.
	built := core.BuildTiers(lat, 3, core.Quantile)
	seen := map[int]bool{}
	for ti, members := range tiers {
		if len(members) == 0 {
			t.Fatalf("tier %d empty", ti)
		}
		if !reflect.DeepEqual(members, built[ti].Members) {
			t.Fatalf("tier %d members %v differ from BuildTiers %v", ti, members, built[ti].Members)
		}
		for _, c := range members {
			if seen[c] {
				t.Fatalf("client %d in two tiers", c)
			}
			seen[c] = true
			if got, ok := m.TierOf(c); !ok || got != ti {
				t.Fatalf("TierOf(%d) = %d,%v want %d", c, got, ok, ti)
			}
		}
	}
	if len(seen) != 12 {
		t.Fatalf("tiers cover %d of 12 clients", len(seen))
	}
	// The fast group (latency ~1) must land in tier 0.
	if got, _ := m.TierOf(0); got != 0 {
		t.Fatalf("fast client 0 in tier %d", got)
	}
	if got, _ := m.TierOf(2); got != 2 {
		t.Fatalf("slow client 2 in tier %d", got)
	}
}

func TestManagerValidation(t *testing.T) {
	lat := profile(6)
	bad := []Config{
		{NumTiers: 0, ClientsPerRound: 1},
		{NumTiers: 2, ClientsPerRound: 0},
		{NumTiers: 2, ClientsPerRound: 1, EWMABeta: 1.5},
		{NumTiers: 2, ClientsPerRound: 1, EWMABeta: -0.1},
	}
	for i, cfg := range bad {
		if _, err := NewManager(cfg, lat); err == nil {
			t.Errorf("config %d accepted: %+v", i, cfg)
		}
	}
	if _, err := NewManager(Config{NumTiers: 2, ClientsPerRound: 1}, nil); err == nil {
		t.Error("empty profile accepted")
	}
	// Degenerate profile: 2 clients, 5 requested tiers collapses to 2.
	m, err := NewManager(Config{NumTiers: 5, ClientsPerRound: 1}, map[int]float64{0: 1, 1: 9})
	if err != nil {
		t.Fatal(err)
	}
	if m.NumTiers() != 2 {
		t.Fatalf("degenerate profile kept %d tiers, want 2", m.NumTiers())
	}
}

func TestCohortMatchesStaticDraw(t *testing.T) {
	// With adaptive off, the Manager's cohorts are exactly the static
	// TierCohort draws over its membership — the property that keeps a
	// Manager run comparable with the frozen-tier engines.
	lat := profile(12)
	m := newTestManager(t, Config{NumTiers: 3, ClientsPerRound: 2, Seed: 42}, lat)
	tiers := m.Tiers()
	for tier := 0; tier < 3; tier++ {
		for r := 0; r < 5; r++ {
			got := m.Cohort(tier, r, 2)
			want := flcore.TierCohort(42, r, tier, tiers[tier], 2)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("tier %d round %d: cohort %v, static draw %v", tier, r, got, want)
			}
		}
	}
	if m.Cohort(7, 0, 2) != nil {
		t.Fatal("out-of-range tier returned a cohort")
	}
}

func TestObserveEWMAAndGuards(t *testing.T) {
	m := newTestManager(t, Config{NumTiers: 2, ClientsPerRound: 1, EWMABeta: 0.5}, map[int]float64{0: 2, 1: 10})
	m.Observe(0, 6)
	if v, _ := m.EWMA(0); v != 4 {
		t.Fatalf("EWMA after one observation = %v, want 4", v)
	}
	// Garbage observations are ignored.
	for _, bad := range []float64{0, -1, math.NaN(), math.Inf(1)} {
		m.Observe(0, bad)
	}
	if v, _ := m.EWMA(0); v != 4 {
		t.Fatalf("EWMA poisoned by garbage observation: %v", v)
	}
	// Late joiners are adopted at their first observation.
	m.Observe(9, 3)
	if v, ok := m.EWMA(9); !ok || v != 3 {
		t.Fatalf("late joiner EWMA = %v,%v", v, ok)
	}
}

// drift drives client latencies so the fast client 0 becomes the slowest;
// a rebuild at the retier point must migrate it.
func TestMaybeRetierMigratesDriftedClient(t *testing.T) {
	lat := map[int]float64{0: 1, 1: 1.1, 2: 10, 3: 11}
	m := newTestManager(t, Config{NumTiers: 2, RetierEvery: 4, ClientsPerRound: 1, Seed: 7}, lat)
	// Client 0 drifts to 40 s; everyone else holds steady.
	for i := 0; i < 6; i++ {
		m.Observe(0, 40)
		m.Observe(1, 1.1)
		m.Observe(2, 10)
		m.Observe(3, 11)
	}
	// Non-multiples of RetierEvery never rebuild.
	if _, _, changed := m.MaybeRetier(3); changed {
		t.Fatal("rebuilt off-schedule")
	}
	tiers, moves, changed := m.MaybeRetier(4)
	if !changed {
		t.Fatal("rebuild point did not re-tier")
	}
	if len(moves) == 0 || m.Retiers() != 1 {
		t.Fatalf("moves %v, retiers %d", moves, m.Retiers())
	}
	if got, _ := m.TierOf(0); got != 1 {
		t.Fatalf("drifted client 0 in tier %d after rebuild", got)
	}
	for _, mv := range moves {
		if mv.Client == 0 && (mv.From != 0 || mv.To != 1) {
			t.Fatalf("client 0 move %+v", mv)
		}
	}
	for ti, members := range tiers {
		if len(members) == 0 {
			t.Fatalf("tier %d empty after rebuild", ti)
		}
	}
	// Same version again is a no-op (idempotent per commit).
	if _, _, changed := m.MaybeRetier(4); changed {
		t.Fatal("same version rebuilt twice")
	}
	log := m.Log()
	if len(log) != 1 || log[0].Version != 4 {
		t.Fatalf("log %+v", log)
	}
}

func TestHysteresisDampsOutlierRounds(t *testing.T) {
	lat := map[int]float64{0: 1, 1: 1.1, 2: 10, 3: 11}
	m := newTestManager(t, Config{NumTiers: 2, RetierEvery: 2, ClientsPerRound: 1, Hysteresis: 0.5, EWMABeta: 0.5}, lat)
	// One bad round nudges client 1's EWMA to 1.6 — within the 50%
	// hysteresis band relative to... 1.1*1.5 = 1.65, so frozen.
	m.Observe(1, 2.1)
	if _, _, changed := m.MaybeRetier(2); changed {
		t.Fatal("single outlier round re-tiered membership")
	}
	// Sustained drift pushes past the band and migrates.
	for i := 0; i < 8; i++ {
		m.Observe(1, 30)
	}
	if _, _, changed := m.MaybeRetier(4); !changed {
		t.Fatal("sustained drift did not re-tier")
	}
	if got, _ := m.TierOf(1); got != 1 {
		t.Fatalf("drifted client 1 in tier %d", got)
	}
}

func TestAdaptiveCohortSizingAndCredits(t *testing.T) {
	lat := profile(12)
	m := newTestManager(t, Config{
		NumTiers: 3, ClientsPerRound: 2, Seed: 3,
		Adaptive: true, Credits: 2, Temperature: 2,
	}, lat)
	// Tier 2 struggles (low accuracy) → boosted cohorts; tier 0 is nearly
	// perfect → shrunk cohorts.
	m.ObserveAccuracy([]float64{0.99, 0.6, 0.1})
	p := m.Probabilities()
	if !(p[2] > p[1] && p[1] > p[0]) {
		t.Fatalf("probabilities not accuracy-ordered: %v", p)
	}
	if got := len(m.Cohort(2, 0, 2)); got <= 2 {
		t.Fatalf("struggling tier cohort size %d not boosted", got)
	}
	if got := len(m.Cohort(0, 0, 2)); got != 1 {
		t.Fatalf("near-perfect tier cohort size %d, want shrunk to 1", got)
	}
	// Credits bound boosted rounds: after the budget, tier 2 falls back to
	// the uniform size.
	m.Cohort(2, 1, 2) // second (and last) boosted round
	if c := m.CreditsRemaining()[2]; c != 0 {
		t.Fatalf("credits remaining %d, want 0", c)
	}
	if got := len(m.Cohort(2, 2, 2)); got != 2 {
		t.Fatalf("credit-exhausted tier cohort size %d, want uniform 2", got)
	}
	// Boosted size never exceeds 2×want even at extreme probabilities.
	m2 := newTestManager(t, Config{NumTiers: 3, ClientsPerRound: 2, Adaptive: true}, profile(30))
	m2.ObserveAccuracy([]float64{1, 1, 0})
	if got := len(m2.Cohort(2, 0, 3)); got > 6 {
		t.Fatalf("boost cap violated: %d > 6", got)
	}
}

func TestAdaptiveFallbackWithoutAccuracies(t *testing.T) {
	// Socket runs never call ObserveAccuracy: probabilities fall back to
	// inverse commit shares, boosting tiers that have drawn fewer cohorts.
	m := newTestManager(t, Config{NumTiers: 3, ClientsPerRound: 2, Adaptive: true}, profile(12))
	for r := 0; r < 10; r++ {
		m.Cohort(0, r, 2) // fast tier draws often
	}
	p := m.Probabilities()
	if !(p[2] > p[0] && p[1] > p[0]) {
		t.Fatalf("rarely-drawn tiers not boosted: %v", p)
	}
}

func TestManagerDeterministicReplay(t *testing.T) {
	// Two Managers fed the identical call sequence must produce identical
	// cohorts, membership, and logs — the property the byte-identical
	// sim-vs-net parity rests on.
	run := func() ([][]int, []Reassignment, [][]int) {
		m, err := NewManager(Config{NumTiers: 3, RetierEvery: 5, ClientsPerRound: 2, Seed: 11}, profile(12))
		if err != nil {
			t.Fatal(err)
		}
		var cohorts [][]int
		rng := rand.New(rand.NewSource(99))
		for v := 1; v <= 30; v++ {
			tier := v % 3
			c := m.Cohort(tier, v/3, 2)
			cohorts = append(cohorts, c)
			for _, ci := range c {
				m.Observe(ci, 1+float64(ci%3)*10+rng.Float64())
			}
			m.MaybeRetier(v)
		}
		return cohorts, m.Log(), m.Tiers()
	}
	c1, l1, t1 := run()
	c2, l2, t2 := run()
	if !reflect.DeepEqual(c1, c2) || !reflect.DeepEqual(l1, l2) || !reflect.DeepEqual(t1, t2) {
		t.Fatal("identical call sequences diverged")
	}
}

func TestManagerConcurrentUse(t *testing.T) {
	// The socket runtime calls Cohort from per-tier goroutines while the
	// committer feeds Observe/MaybeRetier; run under -race.
	m := newTestManager(t, Config{NumTiers: 3, RetierEvery: 3, ClientsPerRound: 2, Adaptive: true, Credits: 5}, profile(30))
	var wg sync.WaitGroup
	for tier := 0; tier < 3; tier++ {
		wg.Add(1)
		go func(tier int) {
			defer wg.Done()
			for r := 0; r < 50; r++ {
				for _, c := range m.Cohort(tier, r, 2) {
					m.Observe(c, float64(1+tier*10))
				}
			}
		}(tier)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for v := 1; v <= 50; v++ {
			m.MaybeRetier(v)
			m.ObserveAccuracy([]float64{0.9, 0.5, 0.2})
			m.Tiers()
			m.Probabilities()
		}
	}()
	wg.Wait()
}
