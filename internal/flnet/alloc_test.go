package flnet

import (
	"net"
	"runtime"
	"runtime/debug"
	"testing"
	"time"

	"repro/internal/compress"
	"repro/internal/tensor"
)

// Allocation contract of the dense socket path, in the style of
// nn/alloc_test.go and compress/alloc_test.go: once every buffer is sized, a
// Train→Update round trip of a 250 000-parameter model — the worker's whole
// session loop on one end of a net.Pipe, an aggregator's send, recv,
// decodeUpdate and vector return on the other — allocates less than one
// payload's worth of bytes for both ends together. Before the frame each end
// allocated several payloads per round trip.
func TestDenseRoundTripSteadyStateAllocs(t *testing.T) {
	const n = 250_000
	model := make([]float64, n)
	for i := range model {
		model[i] = float64(i%97) * 0.01
	}
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
	var vecs tensor.Pool
	peer := &registered{}
	roundTrip := func(round int) {
		bc := newBroadcast(model)
		defer bc.release()
		if err := c.send(&Envelope{Type: MsgTrain, Train: &Train{Round: round, Raw: bc.raw()}}); err != nil {
			t.Fatal(err)
		}
		env, err := c.recv(5 * time.Second)
		if err != nil {
			t.Fatal(err)
		}
		u, ok := decodeUpdate(peer, env, model, &vecs)
		if !ok || u.Weights[n-1] != model[n-1]+1 {
			t.Fatalf("round %d: update decoded as ok %v", round, ok)
		}
		vecs.Put(u.Weights)
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
	if payload := uint64(compress.DenseBytes(n)); perTrip >= payload && !raceEnabled {
		t.Fatalf("a dense round trip allocates %d bytes at steady state, want under one %d-byte payload", perTrip, payload)
	}
	t.Logf("%d bytes allocated per dense round trip (payload %d)", perTrip, compress.DenseBytes(n))
	if err := c.send(&Envelope{Type: MsgDone, Done: &Done{Rounds: rounds}}); err != nil {
		t.Fatal(err)
	}
	if err := <-workerDone; err != nil {
		t.Fatalf("worker: %v", err)
	}
}
