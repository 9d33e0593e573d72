package simres

import (
	"math"
	"math/rand"
	"strings"
	"testing"
)

// checkFloor draws LatencyBytes draws times for a transfer of hiBytes and
// fails on any below LatencyFloor for loBytes ≤ hiBytes: the tiered sim
// commits a round ahead of one still training only when the floor proves
// the order, and it bounds an encoded uplink by its known bytes alone.
func checkFloor(t *testing.T, m LatencyModel, cpu float64, samples, epochs, loBytes, hiBytes int, bw float64, seed int64, draws int) {
	t.Helper()
	floor := m.LatencyFloor(cpu, samples, epochs, loBytes, bw)
	if math.IsNaN(floor) || floor < 0 {
		t.Fatalf("%+v cpu %v samples %d epochs %d bytes %d bw %v: floor %v", m, cpu, samples, epochs, loBytes, bw, floor)
	}
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < draws; i++ {
		if lat := m.LatencyBytes(cpu, samples, epochs, hiBytes, bw, rng); !(lat >= floor) {
			t.Fatalf("%+v cpu %v samples %d epochs %d bytes %d..%d bw %v draw %d: latency %v below floor %v",
				m, cpu, samples, epochs, loBytes, hiBytes, bw, i, lat, floor)
		}
	}
	if lat := m.LatencyBytes(cpu, samples, epochs, hiBytes, bw, nil); !(lat >= floor) {
		t.Fatalf("%+v: jitter-free latency %v below floor %v", m, lat, floor)
	}
}

// TestLatencyFloorBoundsEveryDraw is the floor's property test over random
// resources and models, with the edges named: no jitter, jitter just under
// 1, the bandwidths sanitizeBandwidth replaces, and byte counts whose
// transfer term dwarfs the rest.
func TestLatencyFloorBoundsEveryDraw(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	jitters := []float64{0, 0.05, 0.5, 0.9, 0.999, math.Nextafter(1, 0)}
	bandwidths := []float64{1, 0.1, 3, 0, -2, math.NaN(), math.Inf(1), math.Inf(-1), 1e-300}
	bytes := []int{0, 1, 16, 4008, 1 << 30, math.MaxInt / 2, math.MaxInt}
	for i := 0; i < 3000; i++ {
		m := LatencyModel{
			CostPerSample: rng.ExpFloat64() * 0.01,
			CommLatency:   rng.ExpFloat64() * 0.5,
			CommPerParam:  rng.ExpFloat64() * 1e-3,
			JitterFrac:    rng.Float64(),
		}
		switch i % 4 {
		case 0:
			m.JitterFrac = jitters[rng.Intn(len(jitters))]
		case 1:
			m.CommPerParam = 0
		}
		cpu := math.Exp(rng.Float64()*12 - 6)
		samples, epochs := rng.Intn(5000), 1+rng.Intn(5)
		lo := rng.Intn(1 << 20)
		if i%3 == 0 {
			lo = bytes[rng.Intn(len(bytes))]
		}
		hi := lo + rng.Intn(1<<16)
		if hi < lo {
			hi = lo
		}
		bw := rng.ExpFloat64()
		if i%2 == 0 {
			bw = bandwidths[rng.Intn(len(bandwidths))]
		}
		checkFloor(t, m, cpu, samples, epochs, lo, hi, bw, int64(i), 200)
	}
}

func TestLatencyFloorWithoutJitterIsTheLatency(t *testing.T) {
	m := LatencyModel{CostPerSample: 0.01, CommLatency: 0.5, CommPerParam: 5e-4}
	rng := rand.New(rand.NewSource(3))
	if lat, floor := m.LatencyBytes(0.5, 120, 2, 4008, 0.3, rng), m.LatencyFloor(0.5, 120, 2, 4008, 0.3); lat != floor {
		t.Fatalf("no jitter: latency %v, floor %v", lat, floor)
	}
}

// FuzzLatencyFloor holds LatencyFloor below every LatencyBytes draw for any
// model Validate accepts and any positive finite CPU share.
func FuzzLatencyFloor(f *testing.F) {
	f.Add(0.01, 0.5, 0.0, 0.05, 1.0, uint16(500), uint8(1), int64(4008), uint32(0), 1.0, int64(1))
	f.Add(0.01, 0.5, 5e-4, 0.999, 0.1, uint16(12), uint8(3), int64(1<<40), uint32(100), math.NaN(), int64(2))
	f.Add(0.0, 0.0, 1e-3, 0.0, 4.0, uint16(0), uint8(1), int64(math.MaxInt64/2), uint32(7), -1.0, int64(3))
	f.Fuzz(func(t *testing.T, cost, comm, perParam, jitter, cpu float64, samples uint16, epochs uint8, bytes int64, extra uint32, bw float64, seed int64) {
		m := LatencyModel{CostPerSample: cost, CommLatency: comm, CommPerParam: perParam, JitterFrac: jitter}
		hi := bytes + int64(extra)
		if m.Validate() != nil || !(cpu > 0) || math.IsInf(cpu, 1) || bytes < 0 || hi < bytes || int64(int(hi)) != hi {
			t.Skip() // an int too wide for this GOARCH included
		}
		checkFloor(t, m, cpu, int(samples), int(epochs), int(bytes), int(hi), bw, seed, 64)
	})
}

func TestLatencyModelValidate(t *testing.T) {
	if err := DefaultModel.Validate(); err != nil {
		t.Fatalf("DefaultModel: %v", err)
	}
	for _, tc := range []struct {
		name  string
		m     LatencyModel
		field string
	}{
		{"jitter 1", LatencyModel{CommLatency: 1, JitterFrac: 1}, "JitterFrac"},
		{"jitter 1.5", LatencyModel{CommLatency: 1, JitterFrac: 1.5}, "JitterFrac"},
		{"jitter negative", LatencyModel{CommLatency: 1, JitterFrac: -0.1}, "JitterFrac"},
		{"jitter NaN", LatencyModel{CommLatency: 1, JitterFrac: math.NaN()}, "JitterFrac"},
		{"cost negative", LatencyModel{CostPerSample: -0.01, CommLatency: 1}, "CostPerSample"},
		{"cost NaN", LatencyModel{CostPerSample: math.NaN(), CommLatency: 1}, "CostPerSample"},
		{"cost +Inf", LatencyModel{CostPerSample: math.Inf(1), CommLatency: 1}, "CostPerSample"},
		{"comm negative", LatencyModel{CostPerSample: 0.01, CommLatency: -0.5}, "CommLatency"},
		{"comm NaN", LatencyModel{CostPerSample: 0.01, CommLatency: math.NaN()}, "CommLatency"},
		{"comm +Inf", LatencyModel{CostPerSample: 0.01, CommLatency: math.Inf(1)}, "CommLatency"},
		{"per-param negative", LatencyModel{CostPerSample: 0.01, CommPerParam: -1e-4}, "CommPerParam"},
		{"per-param NaN", LatencyModel{CostPerSample: 0.01, CommPerParam: math.NaN()}, "CommPerParam"},
		{"per-param +Inf", LatencyModel{CostPerSample: 0.01, CommPerParam: math.Inf(1)}, "CommPerParam"},
	} {
		err := tc.m.Validate()
		if err == nil || !strings.Contains(err.Error(), tc.field) {
			t.Errorf("%s: Validate() = %v, want an error naming %s", tc.name, err, tc.field)
		}
	}
}
