package flcore_test

// Checkpoint/resume of a MANAGED sim run: the tiering.Manager's state
// (membership, EWMA estimates, hysteresis placements, rebuild counters)
// rides inside the TieredCheckpoint, so a resumed run replays the
// uninterrupted one bit-for-bit through live re-tierings.

import (
	"math"
	"reflect"
	"testing"

	"repro/internal/flcore"
)

func TestTieredCheckpointResumeWithManagerBitExact(t *testing.T) {
	const snapAt = 12
	clients, test, cfg, lat := liveFixture(t, 4)
	cfg.Manager = liveManager(t, cfg, lat, 8)
	full := flcore.RunTieredAsync(cfg, nil, clients, test)
	if full.Retiers == 0 {
		t.Fatal("fixture no longer re-tiers; the managed-resume check would be vacuous")
	}
	if len(full.TierRounds) <= snapAt {
		t.Fatalf("fixture committed only %d rounds", len(full.TierRounds))
	}

	var raw []byte
	clientsB, testB, cfgB, latB := liveFixture(t, 4)
	cfgB.Manager = liveManager(t, cfgB, latB, 8)
	cfgB.CheckpointEvery = 4
	cfgB.OnCheckpoint = func(c *flcore.TieredCheckpoint) {
		if c.Version == snapAt {
			var err error
			if raw, err = c.Encode(); err != nil {
				t.Errorf("encoding checkpoint: %v", err)
			}
		}
	}
	flcore.RunTieredAsync(cfgB, nil, clientsB, testB)
	if raw == nil {
		t.Fatalf("no checkpoint observed at version %d", snapAt)
	}
	snap, err := flcore.DecodeTieredCheckpoint(raw)
	if err != nil {
		t.Fatal(err)
	}
	if len(snap.ManagerState) == 0 {
		t.Fatal("managed checkpoint carries no manager state")
	}

	// Resume into a fresh population with a FRESH Manager built from the
	// same profile — Restore replaces its estimates with the checkpointed
	// state, exactly the crash-restart flow.
	clientsC, testC, cfgC, latC := liveFixture(t, 4)
	mgrC := liveManager(t, cfgC, latC, 8)
	cfgC.Manager = mgrC
	eng := flcore.NewTieredAsyncEngine(cfgC, nil, clientsC, testC)
	if err := eng.Restore(snap); err != nil {
		t.Fatal(err)
	}
	tail := eng.Run()

	if !reflect.DeepEqual(tail.TierRounds, full.TierRounds[snapAt:]) {
		t.Fatalf("resumed managed commit log diverges at commit %d", snapAt)
	}
	if tail.Retiers != full.Retiers || tail.Migrations != full.Migrations {
		t.Fatalf("cumulative retiers/migrations %d/%d, want %d/%d",
			tail.Retiers, tail.Migrations, full.Retiers, full.Migrations)
	}
	for i := range full.Weights {
		if math.Float64bits(full.Weights[i]) != math.Float64bits(tail.Weights[i]) {
			t.Fatalf("weight %d differs after managed resume", i)
		}
	}
}

// A managed checkpoint must not restore into an unmanaged engine, nor an
// unmanaged checkpoint into a managed one — both silently change cohort
// selection semantics.
func TestTieredCheckpointManagerMismatch(t *testing.T) {
	clients, test, cfg, lat := liveFixture(t, -1)
	mgr := liveManager(t, cfg, lat, 8)

	managedCfg := cfg
	managedCfg.Manager = mgr
	managedEng := flcore.NewTieredAsyncEngine(managedCfg, nil, clients, test)
	managedSnap, err := managedEng.Snapshot()
	if err != nil {
		t.Fatal(err)
	}

	plainEng := flcore.NewTieredAsyncEngine(cfg, mgr.Tiers(), clients, test)
	plainSnap, err := plainEng.Snapshot()
	if err != nil {
		t.Fatal(err)
	}

	if err := plainEng.Restore(managedSnap); err == nil {
		t.Fatal("managed checkpoint restored into unmanaged engine")
	}
	if err := managedEng.Restore(plainSnap); err == nil {
		t.Fatal("unmanaged checkpoint restored into managed engine")
	}
}
