package flnet

import (
	"math"
	"reflect"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/compress"
	"repro/internal/core"
	"repro/internal/flcore"
	"repro/internal/tiering"
)

// conformFleet is a row's population and the spec every runtime derives
// from: tiers is nil when a Manager places the clients, and newManager
// (nil for frozen tiers) builds each runtime's own Manager from the
// fleet's profile.
type conformFleet struct {
	clients    []*flcore.Client
	tiers      [][]int
	spec       flcore.TieredAsyncConfig
	newManager func() flcore.TierManager
}

// driftingFleet is netFixture's population whose three fastest clients
// collapse to 5% CPU for tier rounds 4–7 and then recover — a pure function
// of the round, so every runtime drifts alike — placed by Managers seeded
// from one profiling pass that re-tier every 5 commits. Clients move out
// and back, some before they train in the tier they were moved to.
func driftingFleet(t *testing.T) conformFleet {
	clients, _, _, spec := netFixture(t, 200)
	for i := 0; i < 3; i++ {
		clients[i].Drift = func(round int) float64 {
			if round >= 4 && round < 8 {
				return 0.05
			}
			return 1
		}
	}
	lat := core.Profile(clients, spec.Latency, core.ProfilerConfig{SyncRounds: 3, Tmax: 1e6, Epochs: 1, Seed: 5}).Latency
	return conformFleet{clients: clients, spec: spec, newManager: func() flcore.TierManager {
		mgr, err := tiering.NewManager(tiering.Config{
			NumTiers: 3, RetierEvery: 5, ClientsPerRound: spec.ClientsPerRound, Seed: spec.Seed,
		}, lat)
		if err != nil {
			t.Fatal(err)
		}
		return mgr
	}}
}

// conformCommit is one applied commit as every runtime logs it.
type conformCommit struct {
	tier, round, version, staleness int
	weight                          uint64 // the effective mixing rate's bits
	up, down                        int64
}

// conformRun is one runtime's run of a row.
type conformRun struct {
	commits             []conformCommit
	weights             []float64
	up, down            int64
	retiers, migrations int
	placement           [][]int // the Manager's final membership (nil without one)
	reassigns           int32   // MsgTierReassign envelopes the workers saw
	catchUps            int64   // broadcasts sent as a catch-up of two or more payloads (flat root)
}

// finalTiers is a Manager's membership at the end of its run (nil without one).
func finalTiers(mgr flcore.TierManager) [][]int {
	if mgr == nil {
		return nil
	}
	return mgr.Tiers()
}

// TestRuntimesConform is the sim ≡ flat ≡ tree contract, one row per run
// shape: a fleet (with its Manager factory), a downlink spec, a worker-side
// uplink codec, and whether the tree runs it too (a "tree" subtest; a
// lossless downlink adds a "lossless" subtest for its dense twin). Each row
// builds one flcore.TieredAsyncConfig spec. The simulation runs it with the
// worker codec as its Codec; the flat and tree roots copy its
// CommitterConfig whole; every runtime gets a fresh Manager; every worker
// runs the simulation's own per-client pass (workerEngine). The socket runs
// apply as many commits as the simulation made, in its order
// (scriptCommitOrder).
// Then, per row:
//
//   - every run's commit log (tier, round, version, staleness, mixing rate)
//     and final model equal the simulation's, bit for bit;
//   - the flat run bills the simulation's uplink and downlink bytes, commit
//     by commit and in total, and the tree bills the flat run's uplink;
//   - a lossless delta downlink stays bit-identical to a dense run of the
//     same schedule while spending fewer downlink bytes;
//   - under a Manager the flat run re-tiers and migrates as the simulation
//     does, each migration reaches its worker as one MsgTierReassign, and
//     both Managers end on the same placement;
//   - nothing is vacuous: the simulation commits more than once per tier,
//     every run moves downlink bytes, a Manager row migrates, and a lossy
//     delta row (tiers of 3, cohorts of 2) catches some worker up over two
//     or more rounds. A lossless XOR step of a training update deflates to
//     over half the dense model, so the ring's one-model budget holds one
//     and the lossless row never does.
//
// The tree takes no Manager, and a lossy downlink compresses its root→child
// pulls and child→leaf broadcasts separately, so those rows skip it.
func TestRuntimesConform(t *testing.T) {
	duration := 30.0
	if testing.Short() {
		duration = 15
	}
	frozen := func(t *testing.T) conformFleet {
		clients, tiers, _, spec := netFixture(t, duration)
		return conformFleet{clients: clients, tiers: tiers, spec: spec}
	}
	for _, row := range []struct {
		name, downlink, codec string
		fleet                 func(*testing.T) conformFleet
		tree                  bool
	}{
		{name: "dense", fleet: frozen, tree: true},
		{name: "int8", codec: "int8", fleet: frozen, tree: true},
		{name: "topk", codec: "topk@0.25", fleet: frozen, tree: true},
		{name: "delta", downlink: "delta", fleet: frozen, tree: true},
		{name: "delta+int8", downlink: "delta+int8", fleet: frozen},
		{name: "migration", fleet: driftingFleet},
		{name: "migration/delta+int8", downlink: "delta+int8", fleet: driftingFleet},
	} {
		t.Run(row.name, func(t *testing.T) {
			t.Parallel() // rows share nothing but the CPU
			f := row.fleet(t)
			spec := f.spec
			var err error
			if spec.Downlink, err = compress.ParseDownlink(row.downlink); err != nil {
				t.Fatal(err)
			}
			if row.codec != "" {
				if spec.Codec, err = compress.Parse(row.codec); err != nil {
					t.Fatal(err)
				}
			}

			if f.newManager != nil {
				spec.Manager = f.newManager()
			}
			res := flcore.RunTieredAsync(spec, f.tiers, f.clients, nil)
			sim := conformRun{
				weights: res.Weights, up: res.UplinkBytes, down: res.DownlinkBytes,
				retiers: res.Retiers, migrations: res.Migrations, placement: finalTiers(spec.Manager),
			}
			schedule := make([]int, len(res.TierRounds))
			for i, rec := range res.TierRounds {
				schedule[i] = rec.Tier
				sim.commits = append(sim.commits, conformCommit{rec.Tier, rec.TierRound, rec.Version, rec.Staleness, math.Float64bits(rec.Weight), rec.UplinkBytes, rec.DownlinkBytes})
			}
			if len(schedule) <= len(res.Commits) {
				t.Fatalf("simulation committed only %d rounds over %d tiers; conformance would be vacuous", len(schedule), len(res.Commits))
			}
			if f.newManager != nil && (sim.retiers < 1 || sim.migrations < 1) {
				t.Fatalf("simulation never migrated (%d retiers); conformance would be vacuous", sim.retiers)
			}

			flat := runSockets(t, f, spec, schedule, false)
			sameRun(t, "flat", flat, sim, true)
			if flat.reassigns != int32(sim.migrations) {
				t.Errorf("workers saw %d MsgTierReassign, want %d", flat.reassigns, sim.migrations)
			}
			if spec.Downlink != nil && spec.Downlink.Codec != nil && flat.catchUps == 0 {
				t.Errorf("no worker was caught up over two or more rounds; the ring went unexercised")
			}
			runs := map[string]conformRun{"sim": sim, "flat": flat}
			if row.tree {
				t.Run("tree", func(t *testing.T) {
					tree := runSockets(t, f, spec, schedule, true)
					runs["tree"] = tree
					sameRun(t, "tree", tree, sim, false)
					if tree.up != flat.up {
						t.Errorf("tree billed %d uplink bytes, flat %d", tree.up, flat.up)
					}
				})
			}
			if spec.Downlink != nil && spec.Downlink.Codec == nil {
				t.Run("lossless", func(t *testing.T) {
					dense := spec
					dense.Downlink = nil
					twin := runSockets(t, f, dense, schedule, false)
					sameRun(t, "flat dense", twin, sim, false)
					if flat.down >= twin.down {
						t.Errorf("lossless delta spent %d downlink bytes, dense %d — no savings", flat.down, twin.down)
					}
				})
			}
			for name, run := range runs {
				if run.down <= 0 {
					t.Errorf("%s run billed %d downlink bytes", name, run.down)
				}
			}
		})
	}
}

// runSockets runs spec over the flat runtime, or over the tree with one
// child per tier, applying its commits in schedule order.
func runSockets(t *testing.T, f conformFleet, spec flcore.TieredAsyncConfig, schedule []int, tree bool) conformRun {
	t.Helper()
	if f.newManager != nil {
		spec.Manager = f.newManager()
	}
	root, err := NewTieredAsyncAggregator("127.0.0.1:0", rootConfig(spec, len(schedule)))
	if err != nil {
		t.Fatal(err)
	}
	defer root.Close()
	scriptCommitOrder(root, schedule)
	var reassigns atomic.Int32
	worker := workerEngine(spec, f.clients)
	workers := func(members []int) []WorkerConfig {
		cfgs := make([]WorkerConfig, len(members))
		for i, ci := range members {
			cfgs[i] = worker(ci)
			cfgs[i].Codec = spec.Codec
			cfgs[i].OnTierReassign = func(from, to, numTiers int) { reassigns.Add(1) }
		}
		return cfgs
	}
	var res *TieredAsyncRunResult
	if tree {
		children, waitChildren := startChildren(t, root.Addr(), f.tiers, spec.Downlink)
		var waits []func()
		for ti, members := range f.tiers {
			waits = append(waits, startWorkers(t, children[ti].Addr(), workers(members)))
		}
		if err := root.WaitForChildren(len(f.tiers), 15*time.Second); err != nil {
			t.Fatal(err)
		}
		if res, err = root.RunTree(); err != nil {
			t.Fatal(err)
		}
		waitChildren()
		for _, wait := range waits {
			wait()
		}
	} else {
		ids := make([]int, len(f.clients))
		for ci := range ids {
			ids[ci] = ci
		}
		wait := startWorkers(t, root.Addr(), workers(ids))
		if err := root.WaitForWorkers(len(ids), 10*time.Second); err != nil {
			t.Fatal(err)
		}
		if res, err = root.Run(f.tiers); err != nil {
			t.Fatal(err)
		}
		wait()
	}
	run := conformRun{
		weights: res.Weights, up: res.UplinkBytes, down: res.DownlinkBytes,
		retiers: res.Retiers, migrations: res.Reassigned, placement: finalTiers(spec.Manager),
		reassigns: reassigns.Load(), catchUps: root.Metrics().CatchUps,
	}
	for _, rec := range res.Log {
		run.commits = append(run.commits, conformCommit{rec.Tier, rec.TierRound, rec.Version, rec.Staleness, math.Float64bits(rec.Weight), rec.UplinkBytes, rec.DownlinkBytes})
	}
	return run
}

// sameRun asserts got is the simulation's run: the same commit log and
// final model bit for bit, the same re-tierings and final placement, and —
// with bytes — the same uplink and downlink bills, per commit and in total.
func sameRun(t *testing.T, name string, got, sim conformRun, bytes bool) {
	t.Helper()
	if len(got.commits) != len(sim.commits) {
		t.Fatalf("%s applied %d commits, the simulation %d", name, len(got.commits), len(sim.commits))
	}
	for i, c := range got.commits {
		want := sim.commits[i]
		if !bytes {
			c.up, c.down, want.up, want.down = 0, 0, 0, 0
		}
		if c != want {
			t.Fatalf("%s commit %d diverges: %+v, the simulation %+v", name, i, c, want)
		}
	}
	if len(got.weights) != len(sim.weights) {
		t.Fatalf("%s holds %d weights, the simulation %d", name, len(got.weights), len(sim.weights))
	}
	for i := range got.weights {
		if math.Float64bits(got.weights[i]) != math.Float64bits(sim.weights[i]) {
			t.Fatalf("%s model diverges at weight %d: %x, the simulation %x",
				name, i, math.Float64bits(got.weights[i]), math.Float64bits(sim.weights[i]))
		}
	}
	if got.retiers != sim.retiers || got.migrations != sim.migrations || !reflect.DeepEqual(got.placement, sim.placement) {
		t.Fatalf("%s re-tiered %d times moving %d clients to %v, the simulation %d, %d, %v",
			name, got.retiers, got.migrations, got.placement, sim.retiers, sim.migrations, sim.placement)
	}
	if bytes && (got.up != sim.up || got.down != sim.down) {
		t.Fatalf("%s billed %d uplink and %d downlink bytes, the simulation %d and %d", name, got.up, got.down, sim.up, sim.down)
	}
}
