package tiering

import (
	"math"
	"testing"
)

func commManager(t *testing.T, commAware bool) *Manager {
	t.Helper()
	m, err := NewManager(Config{
		NumTiers: 2, ClientsPerRound: 2, CommAware: commAware,
		EWMABeta: 0.5,
	}, map[int]float64{0: 1, 1: 1.1, 2: 5, 3: 5.5})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestObserveRoundCommAwareSignal(t *testing.T) {
	// CommAware off: ObserveRound must fold exactly what Observe would —
	// the compute-side seconds — so enriching the observation never
	// changes placement behavior on its own.
	m := commManager(t, false)
	m.ObserveRound(0, 2, 40, 1024)
	got, _ := m.EWMA(0)
	want := 0.5*1 + 0.5*2
	if math.Abs(got-want) > 1e-12 {
		t.Fatalf("CommAware=false folded %v, want %v (seconds path)", got, want)
	}

	// CommAware on: the end-to-end time is the signal.
	m = commManager(t, true)
	m.ObserveRound(0, 2, 40, 1024)
	got, _ = m.EWMA(0)
	want = 0.5*1 + 0.5*40
	if math.Abs(got-want) > 1e-12 {
		t.Fatalf("CommAware=true folded %v, want %v (end-to-end path)", got, want)
	}

	// Bad end-to-end values fall back to seconds instead of being dropped.
	m.ObserveRound(1, 3, math.NaN(), 0)
	got, _ = m.EWMA(1)
	want = 0.5*1.1 + 0.5*3
	if math.Abs(got-want) > 1e-12 {
		t.Fatalf("NaN end-to-end folded %v, want %v (seconds fallback)", got, want)
	}
	m.ObserveRound(1, -1, -1, 0) // both bad: no fold at all
	if after, _ := m.EWMA(1); after != got {
		t.Fatalf("invalid observation moved EWMA %v -> %v", got, after)
	}
}

func TestObserveRoundBytesEWMA(t *testing.T) {
	m := commManager(t, false)
	if _, ok := m.CommBytes(0); ok {
		t.Fatal("byte estimate before any observation")
	}
	m.ObserveRound(0, 1, 1, 1000)
	if b, ok := m.CommBytes(0); !ok || b != 1000 {
		t.Fatalf("first byte observation = %v, %v", b, ok)
	}
	m.ObserveRound(0, 1, 1, 2000)
	if b, _ := m.CommBytes(0); math.Abs(b-1500) > 1e-9 {
		t.Fatalf("byte EWMA = %v, want 1500", b)
	}
	m.ObserveRound(0, 1, 1, 0) // zero bytes: nothing measured, no fold
	if b, _ := m.CommBytes(0); math.Abs(b-1500) > 1e-9 {
		t.Fatalf("zero-byte observation moved estimate to %v", b)
	}
}

func TestCommBytesStateRoundTrip(t *testing.T) {
	m := commManager(t, true)
	m.ObserveRound(0, 1, 2, 4096)
	m.ObserveRound(2, 1, 9, 512)
	blob, err := m.SnapshotState()
	if err != nil {
		t.Fatal(err)
	}
	m2 := commManager(t, true)
	if err := m2.RestoreState(blob); err != nil {
		t.Fatal(err)
	}
	for _, ci := range []int{0, 2} {
		a, okA := m.CommBytes(ci)
		b, okB := m2.CommBytes(ci)
		if okA != okB || a != b {
			t.Fatalf("client %d byte estimate %v/%v != restored %v/%v", ci, a, okA, b, okB)
		}
	}
	if _, ok := m2.CommBytes(1); ok {
		t.Fatal("restored manager invented a byte estimate")
	}
}
