package flnet

import (
	"net"
	"runtime"
	"runtime/debug"
	"slices"
	"testing"
	"time"

	"repro/internal/compress"
)

// Allocation contract of the socket path, in the style of nn/alloc_test.go
// and compress/alloc_test.go: once every buffer is sized, a Train→Update
// round trip of a 250 000-parameter model — the worker's whole session loop
// on one end of a net.Pipe, an aggregator's send, recv, decodeUpdate and
// recycle on the other — allocates less than one dense vector's worth of
// bytes for both ends together. Both ends draw their receive buffers from
// the one blob pool: the worker holds its last dense Train's, the
// aggregator hands each update's back through recycle.

const allocModelLen = 250_000

// steadyStateRoundTrips runs round trips against one worker, three to warm
// up and ten measured, and fails if the measured ones allocate a dense
// vector's bytes or more per trip. send writes round's Train and returns the
// first and last weight the worker must train from; the worker adds 1 to
// every weight, which the aggregator end checks on both.
func steadyStateRoundTrips(t *testing.T, send func(c *conn, round int) (first, last float64)) {
	const n = allocModelLen
	agg, leaf := net.Pipe()
	out := make([]float64, n)
	workerDone := make(chan error, 1)
	go func() {
		workerDone <- RunWorker("pipe", WorkerConfig{
			ClientID: 0, NumSamples: 1,
			Dial: func(string, time.Duration) (net.Conn, error) { return leaf, nil },
			Train: func(_ int, w []float64) ([]float64, int, error) {
				for i, v := range w {
					out[i] = v + 1
				}
				return out, 1, nil
			},
		})
	}()
	c := newConn(agg)
	defer c.close() //nolint:errcheck // test shutdown
	if env, err := c.recv(5 * time.Second); err != nil || env.Type != MsgRegister {
		t.Fatalf("registration arrived as (%+v, %v)", env, err)
	}
	peer, weights := &registered{}, make([]float64, n)
	roundTrip := func(round int) {
		first, last := send(c, round)
		env, err := c.recv(5 * time.Second)
		if err != nil {
			t.Fatal(err)
		}
		u, ok := decodeUpdate(peer, env, weights)
		if !ok || u.Weights[0] != first+1 || u.Weights[n-1] != last+1 {
			t.Fatalf("round %d: update decoded as ok %v", round, ok)
		}
		recycle(u)
	}
	// The pools are the collector's to empty; with it off, what is measured
	// is what the code itself allocates.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	for r := 0; r < 3; r++ {
		roundTrip(r) // warm up: size every buffer on both ends
	}
	const rounds = 10
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for r := 0; r < rounds; r++ {
		roundTrip(3 + r)
	}
	runtime.ReadMemStats(&after)
	perTrip := (after.TotalAlloc - before.TotalAlloc) / rounds
	// Under the race detector the round trips still run, for the detector's
	// sake; the bound cannot hold there (see raceEnabled).
	if dense := uint64(compress.DenseBytes(n)); perTrip >= dense && !raceEnabled {
		t.Fatalf("a round trip allocates %d bytes at steady state, want under one %d-byte dense vector", perTrip, dense)
	}
	t.Logf("%d bytes allocated per round trip (dense vector %d)", perTrip, compress.DenseBytes(n))
	if err := c.send(&Envelope{Type: MsgDone, Done: &Done{Rounds: rounds}}); err != nil {
		t.Fatal(err)
	}
	if err := <-workerDone; err != nil {
		t.Fatalf("worker: %v", err)
	}
}

func allocModel() []float64 {
	model := make([]float64, allocModelLen)
	for i := range model {
		model[i] = float64(i%97) * 0.01
	}
	return model
}

// Before the frame each end allocated several payloads per dense round trip;
// now neither end encodes or decodes a copy of one.
func TestDenseRoundTripSteadyStateAllocs(t *testing.T) {
	model := allocModel()
	steadyStateRoundTrips(t, func(c *conn, round int) (float64, float64) {
		if err := c.send(&Envelope{Type: MsgTrain, Train: &Train{Round: round, weights: model}}); err != nil {
			t.Fatal(err)
		}
		return model[0], model[len(model)-1]
	})
}

// A delta+int8 downlink: one versioned dense round, then every round a
// catch-up, which the worker decodes into the vector it holds for the round
// rather than a fresh one.
func TestInt8CatchUpSteadyStateAllocs(t *testing.T) {
	model := allocModel()
	ch := (&compress.Downlink{Codec: compress.NewInt8(0)}).NewChain()
	ch.Adopt(model)
	dense := slices.Clone(model)
	// The chain's payloads and the base each one leads to, built up front so
	// the aggregator end allocates no payload while the test measures.
	payloads := [][]byte{nil}
	bases := [][2]float64{{model[0], model[len(model)-1]}}
	for round := 1; round < 13; round++ {
		for i := range model {
			model[i] += 1e-3 * float64((i+round)%5-2)
		}
		p, _ := ch.Encode(model)
		payloads = append(payloads, p)
		bases = append(bases, [2]float64{ch.Base()[0], ch.Base()[len(model)-1]})
	}
	steadyStateRoundTrips(t, func(c *conn, round int) (float64, float64) {
		tr := &Train{Round: round, Version: round + 1}
		if round == 0 {
			tr.weights = dense
		} else {
			tr.Delta, tr.DeltaBase, tr.DeltaCodec = payloads[round:round+1], round, compress.IDInt8
		}
		if err := c.send(&Envelope{Type: MsgTrain, Train: tr}); err != nil {
			t.Fatal(err)
		}
		return bases[round][0], bases[round][1]
	})
}
