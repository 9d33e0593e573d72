package flcore

import (
	"math"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/compress"
)

// runTieredResumeBitExact is the core crash-safety contract of the sim
// engine: an uninterrupted run vs snapshot-at-version-10 + restore into a
// fresh engine + tail must be bit-identical — weights, clock, commit log
// suffix, and cumulative totals.
func runTieredResumeBitExact(t *testing.T, mutate func(*TieredAsyncConfig)) {
	t.Helper()
	apply := func(cfg *TieredAsyncConfig) {
		if mutate != nil {
			mutate(cfg)
		}
	}
	clients, tiers, test, cfg := tieredFixture(t, 9)
	apply(&cfg)
	full := RunTieredAsync(cfg, tiers, clients, test)
	if len(full.TierRounds) <= 10 {
		t.Fatalf("fixture committed only %d rounds; snapshot point unreachable", len(full.TierRounds))
	}

	const snapAt = 10
	var snap *TieredCheckpoint
	clientsB, tiersB, testB, cfgB := tieredFixture(t, 9)
	apply(&cfgB)
	cfgB.CheckpointEvery = 5
	cfgB.OnCheckpoint = func(c *TieredCheckpoint) {
		if c.Version == snapAt {
			snap = c
		}
	}
	RunTieredAsync(cfgB, tiersB, clientsB, testB)
	if snap == nil {
		t.Fatalf("no checkpoint observed at version %d", snapAt)
	}

	// Resume from the durable encoding, not the in-memory object: the bytes
	// on disk are what a crashed process would have.
	data, err := snap.Encode()
	if err != nil {
		t.Fatal(err)
	}
	restored, err := DecodeTieredCheckpoint(data)
	if err != nil {
		t.Fatal(err)
	}

	clientsC, tiersC, testC, cfgC := tieredFixture(t, 9)
	apply(&cfgC)
	engC := NewTieredAsyncEngine(cfgC, tiersC, clientsC, testC)
	if err := engC.Restore(restored); err != nil {
		t.Fatal(err)
	}
	tail := engC.Run()

	if len(tail.TierRounds) != len(full.TierRounds)-snapAt {
		t.Fatalf("resumed run produced %d commits, want %d", len(tail.TierRounds), len(full.TierRounds)-snapAt)
	}
	if !reflect.DeepEqual(tail.TierRounds, full.TierRounds[snapAt:]) {
		t.Fatalf("resumed commit log diverges from the uninterrupted run:\n%+v\nvs\n%+v",
			tail.TierRounds[0], full.TierRounds[snapAt])
	}
	if !reflect.DeepEqual(tail.Commits, full.Commits) {
		t.Fatalf("cumulative commits %v, want %v", tail.Commits, full.Commits)
	}
	if tail.UplinkBytes != full.UplinkBytes {
		t.Fatalf("cumulative uplink %d, want %d", tail.UplinkBytes, full.UplinkBytes)
	}
	if math.Float64bits(tail.TotalTime) != math.Float64bits(full.TotalTime) {
		t.Fatalf("clock differs: %v vs %v", tail.TotalTime, full.TotalTime)
	}
	for i := range full.Weights {
		if math.Float64bits(full.Weights[i]) != math.Float64bits(tail.Weights[i]) {
			t.Fatalf("weight %d differs after resume", i)
		}
	}
}

func TestTieredCheckpointResumeBitExact(t *testing.T) {
	runTieredResumeBitExact(t, nil)
}

// The compressed variant additionally carries the clients' error-feedback
// residuals through the checkpoint: dropping them would change every
// post-resume update.
func TestTieredCheckpointResumeBitExactCompressed(t *testing.T) {
	runTieredResumeBitExact(t, func(cfg *TieredAsyncConfig) {
		cfg.Codec = compress.NewTopK(0.25)
	})
}

func TestTieredCheckpointEncodeDecodeRoundTrip(t *testing.T) {
	c := &TieredCheckpoint{
		Format: TieredCheckpointFormat, Seed: 7, Version: 3,
		SimTime: 12.5, NextEval: 40,
		Weights: []float64{1, -2}, Rounds: []int{2, 1}, Commits: []int{2, 1},
		Tiers: [][]int{{0, 1}, {2}},
		Pending: []PendingTierRound{{
			Tier: 1, TierRound: 1, PulledVersion: 2, Finish: 14,
			Selected: []int{2}, Weights: []float64{0.5, 0.5},
			Latency: 2, Lats: []float64{2}, UplinkBytes: 24,
		}},
		Residuals: map[int][]float64{2: {0.1, 0}},
	}
	data, err := c.Encode()
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeTieredCheckpoint(data)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, c) {
		t.Fatalf("round trip = %+v", got)
	}
	if _, err := DecodeTieredCheckpoint(data[:len(data)-5]); err == nil {
		t.Fatal("truncated checkpoint accepted")
	}
	if _, err := DecodeTieredCheckpoint(append(append([]byte(nil), data...), 0xFF)); err == nil {
		t.Fatal("trailing garbage accepted")
	}
	bad := *c
	bad.Format = TieredCheckpointFormat + 1
	data, err = bad.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := DecodeTieredCheckpoint(data); err == nil {
		t.Fatal("unknown format accepted")
	}
}

// TestTieredCheckpointRestoreValidation walks every rejection path: a
// checkpoint from another job, a torn or hand-edited one, and non-finite
// model state must all fail loudly before touching engine state.
func TestTieredCheckpointRestoreValidation(t *testing.T) {
	clients, tiers, test, cfg := tieredFixture(t, 9)
	eng := NewTieredAsyncEngine(cfg, tiers, clients, test)
	nw := len(eng.GlobalWeights())
	good := func() *TieredCheckpoint {
		return &TieredCheckpoint{
			Format: TieredCheckpointFormat, Seed: cfg.Seed, Version: 2,
			SimTime: 5, NextEval: 40, Weights: make([]float64, nw),
			Rounds: []int{1, 1, 0}, Commits: []int{1, 1, 0},
			Tiers: [][]int{{0, 1, 2}, {3, 4, 5}, {6, 7, 8}},
		}
	}
	cases := map[string]func(*TieredCheckpoint){
		"unknown format":    func(c *TieredCheckpoint) { c.Format = 99 },
		"wrong seed":        func(c *TieredCheckpoint) { c.Seed = 999 },
		"wrong weight len":  func(c *TieredCheckpoint) { c.Weights = []float64{1} },
		"NaN weight":        func(c *TieredCheckpoint) { c.Weights[0] = math.NaN() },
		"Inf weight":        func(c *TieredCheckpoint) { c.Weights[1] = math.Inf(1) },
		"negative version":  func(c *TieredCheckpoint) { c.Version = -1 },
		"tier count":        func(c *TieredCheckpoint) { c.Tiers = c.Tiers[:2] },
		"cursor lengths":    func(c *TieredCheckpoint) { c.Rounds = []int{1} },
		"empty tier":        func(c *TieredCheckpoint) { c.Tiers[1] = nil },
		"member range":      func(c *TieredCheckpoint) { c.Tiers[0][0] = 99 },
		"duplicate member":  func(c *TieredCheckpoint) { c.Tiers[0][0] = 8 },
		"manager state":     func(c *TieredCheckpoint) { c.ManagerState = []byte{1, 2, 3} },
		"negative simtime":  func(c *TieredCheckpoint) { c.SimTime = -1 },
		"negative round":    func(c *TieredCheckpoint) { c.Rounds[2] = -1 },
		"negative commits":  func(c *TieredCheckpoint) { c.Commits[0] = -3 },
		"negative uplink":   func(c *TieredCheckpoint) { c.UplinkBytes = -1 },
		"negative downlink": func(c *TieredCheckpoint) { c.DownlinkBytes = -1 },
		"negative retiers":  func(c *TieredCheckpoint) { c.Retiers = -1 },
		"negative moves":    func(c *TieredCheckpoint) { c.Migrations = -2 },
		"pending tier":      func(c *TieredCheckpoint) { c.Pending = []PendingTierRound{{Tier: 9}} },
		"pending pulledver": func(c *TieredCheckpoint) { c.Pending = pendingAt(nw, 3) },
		"pending weights": func(c *TieredCheckpoint) {
			p := pendingAt(nw, 1)
			p[0].Weights = []float64{1}
			c.Pending = p
		},
		"pending lats": func(c *TieredCheckpoint) {
			p := pendingAt(nw, 1)
			p[0].Lats = nil
			c.Pending = p
		},
		"pending selected": func(c *TieredCheckpoint) {
			p := pendingAt(nw, 1)
			p[0].Selected = []int{42}
			c.Pending = p
		},
		"residual key": func(c *TieredCheckpoint) { c.Residuals = map[int][]float64{99: make([]float64, nw)} },
		"residual len": func(c *TieredCheckpoint) { c.Residuals = map[int][]float64{0: {1}} },
	}
	for name, breakIt := range cases {
		c := good()
		breakIt(c)
		if err := eng.Restore(c); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
	if err := eng.Restore(good()); err != nil {
		t.Fatalf("valid checkpoint rejected: %v", err)
	}
}

// pendingAt builds one well-formed in-flight tier round with the given
// pulled version, for tests to then break one field of.
func pendingAt(nw, pulledVer int) []PendingTierRound {
	return []PendingTierRound{{
		Tier: 0, TierRound: 1, PulledVersion: pulledVer, Finish: 9,
		Selected: []int{0, 1}, Weights: make([]float64, nw),
		Latency: 1, Lats: []float64{1, 1}, UplinkBytes: 8,
	}}
}

// TestTieredCheckpointSaveFileCrashSafe simulates every crash point of the
// atomic write: after two successful saves, a torn newest file must fall
// back to the rotated previous snapshot, and stale temp files from an
// interrupted write must not break later saves or loads.
func TestTieredCheckpointSaveFileCrashSafe(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "run.ckpt")
	mk := func(version int) *TieredCheckpoint {
		return &TieredCheckpoint{
			Format: TieredCheckpointFormat, Seed: 7, Version: version,
			Weights: []float64{float64(version)},
			Rounds:  []int{version}, Commits: []int{version}, Tiers: [][]int{{0}},
		}
	}
	if err := mk(1).SaveFile(path); err != nil {
		t.Fatal(err)
	}
	if err := mk(2).SaveFile(path); err != nil {
		t.Fatal(err)
	}
	got, err := LoadTieredCheckpointFile(path)
	if err != nil || got.Version != 2 {
		t.Fatalf("loaded %+v, %v; want version 2", got, err)
	}

	// Crash mid-write of version 3: the newest file is torn garbage. Load
	// must fall back to version 2, now in the rotated slot.
	if err := mk(3).SaveFile(path); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, []byte("torn half-written snapsh"), 0o644); err != nil {
		t.Fatal(err)
	}
	got, err = LoadTieredCheckpointFile(path)
	if err != nil {
		t.Fatalf("no fallback to previous snapshot: %v", err)
	}
	if got.Version != 2 {
		t.Fatalf("fallback loaded version %d, want 2", got.Version)
	}

	// Crash before the rename: a stale temp file litters the directory.
	// Saves and loads must keep working, and the temp must not shadow the
	// real checkpoint.
	if err := os.WriteFile(path+".tmp12345", []byte("abandoned"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := mk(4).SaveFile(path); err != nil {
		t.Fatal(err)
	}
	got, err = LoadTieredCheckpointFile(path)
	if err != nil || got.Version != 4 {
		t.Fatalf("loaded %+v, %v; want version 4", got, err)
	}

	// Both the newest and the previous snapshot gone bad: the error names
	// both paths instead of silently resuming garbage.
	if err := os.WriteFile(path, []byte("bad"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path+".prev", []byte("bad too"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadTieredCheckpointFile(path); err == nil {
		t.Fatal("two corrupt snapshots accepted")
	}
}
