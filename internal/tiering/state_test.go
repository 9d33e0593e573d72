package tiering

import (
	"bytes"
	"encoding/gob"
	"reflect"
	"testing"
)

// stateFixture builds a Manager, feeds it observations, and forces a
// rebuild so every piece of internal state is non-trivial before the
// snapshot.
func stateFixture(t *testing.T) *Manager {
	t.Helper()
	prof := map[int]float64{}
	for i := 0; i < 9; i++ {
		prof[i] = float64(1+i%3) * 0.5
	}
	m, err := NewManager(Config{
		NumTiers: 3, RetierEvery: 4, ClientsPerRound: 2, Seed: 7,
		Adaptive: true, Credits: 5,
	}, prof)
	if err != nil {
		t.Fatal(err)
	}
	// Drift the fast clients slow, feed accuracies, cross a rebuild point,
	// and burn some adaptive draws so probs/credits/log all move.
	for i := 0; i < 3; i++ {
		m.Observe(i, 9.0)
	}
	m.ObserveAccuracy([]float64{0.2, 0.5, 0.8})
	m.MaybeRetier(4)
	for r := 0; r < 3; r++ {
		for tier := 0; tier < 3; tier++ {
			m.Cohort(tier, r, 2)
		}
	}
	return m
}

func TestManagerStateRoundTrip(t *testing.T) {
	src := stateFixture(t)
	data, err := src.SnapshotState()
	if err != nil {
		t.Fatal(err)
	}

	// Restore into a fresh Manager built from a DIFFERENT profile: every
	// estimate must come from the snapshot, not the constructor.
	prof := map[int]float64{}
	for i := 0; i < 9; i++ {
		prof[i] = 1.0
	}
	dst, err := NewManager(Config{
		NumTiers: 3, RetierEvery: 4, ClientsPerRound: 2, Seed: 7,
		Adaptive: true, Credits: 5,
	}, prof)
	if err != nil {
		t.Fatal(err)
	}
	if err := dst.RestoreState(data); err != nil {
		t.Fatal(err)
	}

	if !reflect.DeepEqual(dst.Tiers(), src.Tiers()) {
		t.Fatalf("tiers differ: %v vs %v", dst.Tiers(), src.Tiers())
	}
	if !reflect.DeepEqual(dst.Probabilities(), src.Probabilities()) {
		t.Fatalf("probabilities differ: %v vs %v", dst.Probabilities(), src.Probabilities())
	}
	if !reflect.DeepEqual(dst.CreditsRemaining(), src.CreditsRemaining()) {
		t.Fatalf("credits differ: %v vs %v", dst.CreditsRemaining(), src.CreditsRemaining())
	}
	if !reflect.DeepEqual(dst.Log(), src.Log()) {
		t.Fatalf("re-tier logs differ")
	}
	for i := 0; i < 9; i++ {
		sv, sok := src.EWMA(i)
		dv, dok := dst.EWMA(i)
		if sok != dok || sv != dv {
			t.Fatalf("EWMA for client %d differs: %v/%v vs %v/%v", i, sv, sok, dv, dok)
		}
	}
	// The restored Manager must continue the run identically: same cohort
	// draws and same rebuild decisions.
	for r := 3; r < 6; r++ {
		for tier := 0; tier < 3; tier++ {
			a, b := src.Cohort(tier, r, 2), dst.Cohort(tier, r, 2)
			if !reflect.DeepEqual(a, b) {
				t.Fatalf("tier %d round %d cohorts diverge: %v vs %v", tier, r, a, b)
			}
		}
	}
	at, am, ac := src.MaybeRetier(8)
	bt, bm, bc := dst.MaybeRetier(8)
	if ac != bc || !reflect.DeepEqual(at, bt) || !reflect.DeepEqual(am, bm) {
		t.Fatalf("post-restore rebuilds diverge: (%v,%v,%v) vs (%v,%v,%v)", at, am, ac, bt, bm, bc)
	}
}

func TestManagerRestoreStateValidation(t *testing.T) {
	src := stateFixture(t)
	good, err := src.SnapshotState()
	if err != nil {
		t.Fatal(err)
	}

	if err := src.RestoreState([]byte("garbage")); err == nil {
		t.Error("garbage blob accepted")
	}
	if err := src.RestoreState(append(append([]byte(nil), good...), 0x01)); err == nil {
		t.Error("trailing garbage accepted")
	}

	// A snapshot from a Manager with a different tier count must not load.
	other, err := NewManager(Config{NumTiers: 2, ClientsPerRound: 2, Seed: 7},
		map[int]float64{0: 1, 1: 2, 2: 3, 3: 4})
	if err != nil {
		t.Fatal(err)
	}
	blob, err := other.SnapshotState()
	if err != nil {
		t.Fatal(err)
	}
	if err := src.RestoreState(blob); err == nil {
		t.Error("wrong-tier-count state accepted")
	}

	// After any rejected restore the Manager must still work.
	if err := src.RestoreState(good); err != nil {
		t.Fatalf("valid state rejected after failed attempts: %v", err)
	}
	if got := src.Cohort(0, 0, 2); len(got) == 0 {
		t.Fatal("manager unusable after restore")
	}
}

// TestRestoreStateSkipsRetiredPinnedField pins the checkpoint-compatibility
// promise in State's godoc: a blob written while State still had its Pinned
// field restores, and the restored Manager is the one the same blob without
// the field yields — the formerly pinned client re-tiers like any other.
func TestRestoreStateSkipsRetiredPinnedField(t *testing.T) {
	type stateWithPins struct {
		Tiers                                   [][]int
		EWMA, Placed                            map[int]float64
		Pinned                                  []int
		Probs                                   []float64
		HaveAccs                                bool
		Credits, Draws                          []int
		Retiers, Rebuilds, Skipped, LastVersion int
		Log                                     []Reassignment
		CommBytes                               map[int]float64
	}
	good, err := stateFixture(t).SnapshotState()
	if err != nil {
		t.Fatal(err)
	}
	var old stateWithPins
	if err := gob.NewDecoder(bytes.NewReader(good)).Decode(&old); err != nil {
		t.Fatal(err)
	}
	old.Pinned = []int{0, 4}
	var blob bytes.Buffer
	if err := gob.NewEncoder(&blob).Encode(&old); err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(blob.Bytes(), good) {
		t.Fatal("fixture blob does not carry the Pinned field")
	}
	want, got := stateFixture(t), stateFixture(t)
	if err := want.RestoreState(good); err != nil {
		t.Fatal(err)
	}
	if err := got.RestoreState(blob.Bytes()); err != nil {
		t.Fatalf("blob carrying Pinned rejected: %v", err)
	}
	if !reflect.DeepEqual(got.Tiers(), want.Tiers()) {
		t.Fatalf("tiers differ: %v vs %v", got.Tiers(), want.Tiers())
	}
	// Client 0 speeds back up on both; the retired pin must not hold it back.
	for _, m := range []*Manager{want, got} {
		for i := 0; i < 8; i++ {
			m.Observe(0, 0.1)
		}
	}
	at, am, ac := want.MaybeRetier(8)
	bt, bm, bc := got.MaybeRetier(8)
	if !ac || ac != bc || !reflect.DeepEqual(at, bt) || !reflect.DeepEqual(am, bm) {
		t.Fatalf("post-restore rebuilds diverge: (%v,%v,%v) vs (%v,%v,%v)", at, am, ac, bt, bm, bc)
	}
}
