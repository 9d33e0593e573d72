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

// tierOf reads a client's current tier off the Manager.
func tierOf(m *Manager, client int) (int, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	t, ok := m.tierOf[client]
	return t, ok
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
			if got, ok := tierOf(m, c); !ok || got != ti {
				t.Fatalf("TierOf(%d) = %d,%v want %d", c, got, ok, ti)
			}
		}
	}
	if len(seen) != 12 {
		t.Fatalf("tiers cover %d of 12 clients", len(seen))
	}
	// The fast group (latency ~1) must land in tier 0.
	if got, _ := tierOf(m, 0); got != 0 {
		t.Fatalf("fast client 0 in tier %d", got)
	}
	if got, _ := tierOf(m, 2); got != 2 {
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
	if got := len(m.Tiers()); got != 2 {
		t.Fatalf("degenerate profile kept %d tiers, want 2", got)
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
	if got, _ := tierOf(m, 0); got != 1 {
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
	if _, _, changed := m.MaybeRetier(4); changed || m.Retiers() != 1 {
		t.Fatalf("same version rebuilt twice (changed %v, %d retiers)", changed, m.Retiers())
	}
}

func TestHysteresisDampsOutlierRounds(t *testing.T) {
	lat := map[int]float64{0: 1, 1: 2, 2: 2.1, 3: 10}
	m := newTestManager(t, Config{NumTiers: 2, RetierEvery: 2, ClientsPerRound: 1, EWMABeta: 0.5}, lat)
	// One bad round nudges client 1's EWMA to 2.2: past client 2's 2.1, so
	// an undamped rebuild would swap the two, but within the 20 %
	// hysteresis band of its 2 s placement, so it stays frozen.
	m.Observe(1, 2.4)
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
	if got, _ := tierOf(m, 1); got != 1 {
		t.Fatalf("drifted client 1 in tier %d", got)
	}
}

// TestRebuildSkippedBelowTierCount: when the estimates no longer split into
// the maintained tier count (an equal-width bin ran empty), the rebuild is
// skipped and membership is untouched.
func TestRebuildSkippedBelowTierCount(t *testing.T) {
	lat := map[int]float64{0: 1, 1: 2, 2: 3}
	m := newTestManager(t, Config{NumTiers: 3, EqualWidth: true, RetierEvery: 1, EWMABeta: 1, ClientsPerRound: 1}, lat)
	before := m.Tiers()
	m.Observe(1, 1) // client 1 joins client 0's bin; the middle one empties
	if _, _, changed := m.MaybeRetier(1); changed {
		t.Fatal("rebuild into 2 equal-width tiers of a 3-tier run was not skipped")
	}
	if got := m.Tiers(); !reflect.DeepEqual(got, before) {
		t.Fatalf("membership changed on a skipped rebuild: %v, was %v", got, before)
	}
	if m.skipped != 1 {
		t.Fatalf("skipped rebuilds = %d, want 1", m.skipped)
	}
}

// alg2 reads an adaptive Manager's Algorithm-2 probabilities and credits.
func alg2(m *Manager) ([]float64, []int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.alg2.Snapshot()
}

// TestAdaptiveCohortSizingAndCredits: each row feeds one set of accuracies
// and then draws cohorts, checking each cohort's size and the drawn tier's
// credits after it. Lower accuracy must mean higher probability.
func TestAdaptiveCohortSizingAndCredits(t *testing.T) {
	type draw struct{ tier, want, size, credits int }
	for _, row := range []struct {
		name             string
		clients, credits int
		accs             []float64
		draws            []draw
	}{{
		// Tier 2 struggles → boosted (p·3·2 = 5, capped at 2·want) until its
		// 2 credits are spent, then uniform; tier 0 is nearly perfect → 1.
		name: "credits bound boosted rounds", clients: 12, credits: 2,
		accs:  []float64{0.99, 0.6, 0.1},
		draws: []draw{{2, 2, 4, 1}, {0, 2, 1, 2}, {2, 2, 4, 0}, {2, 2, 2, 0}},
	}, {
		name: "boost capped at 2·want", clients: 30,
		accs:  []float64{1, 1, 0},
		draws: []draw{{2, 3, 6, math.MaxInt}},
	}, {
		// A 2-member tier cannot grow past want 2: not a boosted round.
		name: "no credit for a boost the tier cannot hold", clients: 6, credits: 3,
		accs:  []float64{0.99, 0.99, 0.1},
		draws: []draw{{2, 2, 2, 3}},
	}} {
		m := newTestManager(t, Config{
			NumTiers: 3, ClientsPerRound: 2, Seed: 3, Adaptive: true, Credits: row.credits,
		}, profile(row.clients))
		m.ObserveAccuracy(row.accs)
		p, _ := alg2(m)
		for i := range p {
			for j := range p {
				if row.accs[i] < row.accs[j] && !(p[i] > p[j]) {
					t.Fatalf("%s: probabilities %v not ordered against accuracies %v", row.name, p, row.accs)
				}
			}
		}
		for r, d := range row.draws {
			if got := len(m.Cohort(d.tier, r, d.want)); got != d.size {
				t.Fatalf("%s: draw %d: tier %d cohort size %d, want %d", row.name, r, d.tier, got, d.size)
			}
			if _, c := alg2(m); c[d.tier] != d.credits {
				t.Fatalf("%s: draw %d: tier %d has %d credits, want %d", row.name, r, d.tier, c[d.tier], d.credits)
			}
		}
	}
}

func TestManagerDeterministicReplay(t *testing.T) {
	// Two Managers fed the identical call sequence must produce identical
	// cohorts, membership, and logs — the property the byte-identical
	// sim-vs-net parity rests on.
	run := func() ([][]int, [][]flcore.TierMove, [][]int) {
		m, err := NewManager(Config{NumTiers: 3, RetierEvery: 5, ClientsPerRound: 2, Seed: 11}, profile(12))
		if err != nil {
			t.Fatal(err)
		}
		var cohorts [][]int
		var moves [][]flcore.TierMove
		rng := rand.New(rand.NewSource(99))
		for v := 1; v <= 30; v++ {
			tier := v % 3
			c := m.Cohort(tier, v/3, 2)
			cohorts = append(cohorts, c)
			for _, ci := range c {
				m.Observe(ci, 1+float64(ci%3)*10+rng.Float64())
			}
			if _, mv, changed := m.MaybeRetier(v); changed {
				moves = append(moves, mv)
			}
		}
		return cohorts, moves, m.Tiers()
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
			if _, err := m.SnapshotState(); err != nil {
				t.Error(err)
			}
		}
	}()
	wg.Wait()
}
