package flcore

// Population-scale property tests: the event heap ordering the simulated
// clock, the deterministic lazy client derivation, and the memory bound
// that makes a 100k-client run affordable — resident client state must
// scale with cohort size, never population size.

import (
	"container/heap"
	"math"
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/compress"
	"repro/internal/dataset"
	"repro/internal/nn"
	"repro/internal/simres"
	"repro/internal/tensor"
)

// syntheticFactory derives fully synthetic clients from (seed, id): an
// 8-sample private shard generated on the fly and a CPU share from the
// paper's CIFAR resource groups, assigned contiguously so tier k owns the
// id range [k*n/5, (k+1)*n/5). No O(N) state exists anywhere — this is the
// factory shape ext_million uses.
func syntheticFactory(seed int64, n, samplesPer int) ClientFactory {
	groups := simres.GroupsCIFAR
	return func(id int) *Client {
		shard := dataset.Generate(dataset.MNISTLike, samplesPer, mix(seed, id, 101))
		return &Client{
			ID:    id,
			Train: shard,
			CPU:   groups[id*len(groups)/n],
		}
	}
}

// contiguousTiers splits [0,n) into k contiguous tiers, fastest first —
// matching syntheticFactory's CPU assignment.
func contiguousTiers(n, k int) [][]int {
	tiers := make([][]int, k)
	for i := 0; i < n; i++ {
		g := i * k / n
		tiers[g] = append(tiers[g], i)
	}
	return tiers
}

// FuzzTierRunHeap drives the event queue with arbitrary interleavings of
// pushes and pops and checks the two properties the simulated clock rests
// on: events leave the heap in non-decreasing (finish, tier) order — the
// clock never runs backwards and ties break deterministically by tier —
// and no event is ever lost or duplicated.
func FuzzTierRunHeap(f *testing.F) {
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8})
	f.Add([]byte{0, 0, 0, 0})
	f.Add([]byte{255, 1, 128, 64, 32, 200, 9})
	f.Fuzz(func(t *testing.T, data []byte) {
		var h tierRunHeap
		heap.Init(&h)
		pushed, popped := 0, 0
		lastFinish := math.Inf(-1)
		lastTier := -1
		popOne := func() {
			run := heap.Pop(&h).(*tierRun)
			popped++
			if run.finish < lastFinish {
				t.Fatalf("clock ran backwards: %v after %v", run.finish, lastFinish)
			}
			if run.finish == lastFinish && run.Tier < lastTier {
				t.Fatalf("tie at %v broke out of tier order: %d after %d", run.finish, run.Tier, lastTier)
			}
			lastFinish, lastTier = run.finish, run.Tier
		}
		for i := 0; i+1 < len(data); i += 2 {
			if data[i]%5 == 0 && h.Len() > 0 {
				popOne()
				// A pop between pushes re-opens the whole order for the
				// remaining events; only the global multiset check below
				// stays valid, so reset the order cursor.
				lastFinish, lastTier = math.Inf(-1), -1
				continue
			}
			heap.Push(&h, &tierRun{
				finish: float64(data[i]) / 16,
				Commit: Commit{Tier: int(data[i+1] % 8)},
			})
			pushed++
		}
		lastFinish, lastTier = math.Inf(-1), -1
		for h.Len() > 0 {
			popOne()
		}
		if popped != pushed {
			t.Fatalf("pushed %d events, popped %d", pushed, popped)
		}
	})
}

// FuzzLazyDerivation pins the ClientFactory determinism contract for the
// synthetic population: re-materializing an id yields byte-identical client
// state, and distinct ids yield independent (differing) shards.
func FuzzLazyDerivation(f *testing.F) {
	f.Add(int64(1), uint16(3), uint16(7))
	f.Add(int64(-9), uint16(0), uint16(63))
	f.Fuzz(func(t *testing.T, seed int64, aRaw, bRaw uint16) {
		const n = 64
		a, b := int(aRaw)%n, int(bRaw)%n
		factory := syntheticFactory(seed, n, 8)
		c1, c2 := factory(a), factory(a)
		if c1.CPU != c2.CPU || c1.ID != c2.ID {
			t.Fatalf("re-materialized client %d differs: %+v vs %+v", a, c1, c2)
		}
		x1, x2 := c1.Train.X.Data, c2.Train.X.Data
		if len(x1) != len(x2) {
			t.Fatalf("shard sizes differ for id %d: %d vs %d", a, len(x1), len(x2))
		}
		for i := range x1 {
			if math.Float64bits(x1[i]) != math.Float64bits(x2[i]) {
				t.Fatalf("shard bytes differ for id %d at %d", a, i)
			}
		}
		for i, y := range c1.Train.Y {
			if y != c2.Train.Y[i] {
				t.Fatalf("labels differ for id %d at %d", a, i)
			}
		}
		if a != b {
			c3 := factory(b)
			same := len(c3.Train.X.Data) == len(x1)
			if same {
				for i := range x1 {
					if math.Float64bits(x1[i]) != math.Float64bits(c3.Train.X.Data[i]) {
						same = false
						break
					}
				}
			}
			if same {
				t.Fatalf("ids %d and %d derived identical shards", a, b)
			}
		}
	})
}

// TestLazyClientsRefcountAndResiduals exercises the source bookkeeping
// directly: refcounts, peak tracking, residual carry-over, and the
// unacquired-release panic.
func TestLazyClientsRefcountAndResiduals(t *testing.T) {
	src := NewLazyClients(64, syntheticFactory(5, 64, 4))
	a := src.Acquire(3)
	b := src.Acquire(3)
	if st := src.Stats(); st.Live != 2 || st.Peak != 2 || st.Materialized != 2 {
		t.Fatalf("stats after double acquire: %+v", st)
	}
	src.Release(b) // residual-less release first: must not disturb a's state
	a.residual = []float64{1, 2}
	src.Release(a)
	if st := src.Stats(); st.Live != 0 || st.Residuals != 1 {
		t.Fatalf("stats after release: %+v", st)
	}
	c := src.Acquire(3)
	if len(c.residual) != 2 || c.residual[0] != 1 {
		t.Fatalf("residual did not survive the round trip: %v", c.residual)
	}
	c.residual = nil
	src.Release(c)
	if st := src.Stats(); st.Residuals != 0 {
		t.Fatalf("cleared residual still tracked: %+v", st)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("releasing an unacquired client did not panic")
		}
	}()
	src.Release(&Client{ID: 9})
}

// TestLazyClientsRoundTripDropsState is the pool round-trip leak check:
// acquire/release cycles over clients carrying ~1MB shards must not
// accumulate heap — the source may hold residuals, never datasets. With a
// leak, 300 cycles retain ~300MB; the threshold leaves generous room for
// allocator noise.
func TestLazyClientsRoundTripDropsState(t *testing.T) {
	const dim, samples = 64, 2048 // ≈1MB per client shard
	factory := func(id int) *Client {
		return &Client{
			ID:    id,
			Train: &dataset.Dataset{X: tensor.New(samples, dim), Y: make([]int, samples), NumClasses: 10},
			CPU:   1,
		}
	}
	src := NewLazyClients(1024, factory)
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i := 0; i < 300; i++ {
		c := src.Acquire(i % 1024)
		src.Release(c)
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	if st := src.Stats(); st.Live != 0 || st.Peak != 1 {
		t.Fatalf("stats after round trips: %+v", st)
	}
	growth := int64(after.HeapAlloc) - int64(before.HeapAlloc)
	if growth > 64<<20 {
		t.Fatalf("heap grew %d bytes over 300 release cycles; released clients are being retained", growth)
	}
}

// TestLazyEngineMemoryBounded is the population-scale memory regression: a
// 100k-client compressed run in which resident client state must stay
// bounded by the active cohorts (one per tier), residual bookkeeping by the ever-selected
// set, and the commit log must satisfy the no-lost-commit invariants.
func TestLazyEngineMemoryBounded(t *testing.T) {
	const n = 100_000
	src := NewLazyClients(n, syntheticFactory(11, n, 8))
	cfg := TieredAsyncConfig{
		CommitterConfig: CommitterConfig{ClientsPerRound: 4, Seed: 11},
		Duration:        8, BatchSize: 8, LocalEpochs: 1,
		Model: func(rng *rand.Rand) *nn.Model {
			return nn.NewMLP(rng, dataset.MNISTLike.Dim, []int{8}, 10, 0)
		},
		Optimizer: func(round int) nn.Optimizer { return nn.NewRMSprop(0.01, 0.995) },
		Latency:   simres.DefaultModel,
		Codec:     compress.NewInt8(0),
	}
	eng := NewTieredAsyncEngineFrom(cfg, contiguousTiers(n, 5), src, nil)
	res := eng.Run()

	total := 0
	for _, c := range res.Commits {
		total += c
	}
	if total == 0 {
		t.Fatal("no commits at population scale")
	}
	if len(res.TierRounds) != total {
		t.Fatalf("no-lost-commit violated: %d records for %d commits", len(res.TierRounds), total)
	}
	next := make([]int, 5)
	prevTime := 0.0
	selected := make(map[int]bool)
	for i, rec := range res.TierRounds {
		if rec.TierRound != next[rec.Tier] {
			t.Fatalf("commit %d: tier %d round %d, want %d (a tier round was lost or reordered)",
				i, rec.Tier, rec.TierRound, next[rec.Tier])
		}
		next[rec.Tier]++
		if rec.SimTime < prevTime || rec.SimTime > cfg.Duration {
			t.Fatalf("commit %d: sim time %v outside [%v, %v]", i, rec.SimTime, prevTime, cfg.Duration)
		}
		prevTime = rec.SimTime
		for _, ci := range rec.Selected {
			selected[ci] = true
		}
	}

	st := src.Stats()
	if st.Live != 0 {
		t.Fatalf("%d clients still resident after the run", st.Live)
	}
	// Each tier has at most one round training at a time, and a round
	// holds its cohort until it is joined.
	if st.Peak > 5*cfg.ClientsPerRound {
		t.Fatalf("peak resident clients %d exceeds one cohort of %d per tier: client state is not cohort-bounded",
			st.Peak, cfg.ClientsPerRound)
	}
	// Residuals may also cover cohorts still in flight when the budget
	// expired, which never reached the commit log.
	if st.Residuals > len(selected)+5*cfg.ClientsPerRound {
		t.Fatalf("%d residuals tracked for %d ever-selected clients: bookkeeping is not selection-sparse",
			st.Residuals, len(selected))
	}
	if st.Residuals == 0 {
		t.Fatal("compressed run tracked no residuals; the sparse-residual path was not exercised")
	}
}
