package flnet

import (
	"math"
	"math/bits"
	"net"
	"runtime"
	"runtime/debug"
	"slices"
	"testing"
	"time"

	"repro/internal/compress"
	"repro/internal/flcore"
	"repro/internal/nn"
)

// Allocation contract of the socket path, in the style of nn/alloc_test.go
// and compress/alloc_test.go: once every buffer is sized, a Train→Update
// round trip of a 250 000-parameter model — the worker's whole session loop
// on one end of a net.Pipe, an aggregator's send, recv, decodeUpdate and
// recycle on the other — allocates less than one update's worth of bytes
// for both ends together: one dense vector's, or one payload's when the
// worker compresses. Both ends draw their receive buffers from the one blob
// pool: the worker holds the dense Train its tier's base came from, the
// aggregator hands each update's back through recycle.

const allocModelLen = 250_000

// steadyStateRoundTrips runs round trips against one worker with the given
// uplink codec (nil: dense), three to warm up and ten measured, and fails
// if the measured ones allocate one update's bytes or more per trip. send
// writes round's Train and returns the first and last weight the worker must
// train from; the worker adds 1 to every weight, which the aggregator end
// checks on both: exactly on a dense update, and within a quantization step
// on a compressed one, decoded against zeros so that it reads as the delta.
func steadyStateRoundTrips(t *testing.T, codec compress.Codec, send func(c *conn, round int) (first, last float64)) {
	const n = allocModelLen
	agg, leaf := net.Pipe()
	out := make([]float64, n)
	workerDone := make(chan error, 1)
	go func() {
		workerDone <- RunWorker("pipe", WorkerConfig{
			ClientID: 0, NumSamples: 1, Codec: codec,
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
	bound := compress.DenseBytes(n)
	near := func(got, want float64) bool { return got == want }
	if codec != nil {
		peer.codec, bound = codec.ID(), codec.EncodedBytes(n)
		// A NaN is not near anything.
		near = func(got, want float64) bool { return math.Abs(got-want) <= 1e-6 }
	}
	roundTrip := func(round int) {
		first, last := send(c, round)
		env, err := c.recv(5 * time.Second)
		if err != nil {
			t.Fatal(err)
		}
		if codec != nil {
			first, last = 0, 0
		}
		u, ok := decodeUpdate(peer, env, weights)
		if !ok || !near(weightAt(u.Update, 0), first+1) || !near(weightAt(u.Update, n-1), last+1) {
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
		if codec != nil {
			// A compressed update takes no dense vector at the aggregator:
			// with the pool's dense class empty, one would be a fresh
			// allocation over the bound.
			for blobs[bits.Len(uint(compress.DenseBytes(n)))].Get() != nil {
			}
		}
		roundTrip(3 + r)
	}
	runtime.ReadMemStats(&after)
	perTrip := (after.TotalAlloc - before.TotalAlloc) / rounds
	// Under the race detector the round trips still run, for the detector's
	// sake; the bound cannot hold there (see raceEnabled).
	if perTrip >= uint64(bound) && !raceEnabled {
		t.Fatalf("a round trip allocates %d bytes at steady state, want under one %d-byte update", perTrip, bound)
	}
	t.Logf("%d bytes allocated per round trip (update %d)", perTrip, bound)
	if err := c.send(&Envelope{Type: MsgDone, Done: &Done{Rounds: rounds}}); err != nil {
		t.Fatal(err)
	}
	if err := <-workerDone; err != nil {
		t.Fatalf("worker: %v", err)
	}
}

// weightAt is coordinate i of an update's weights, decoded alone from an
// int8 update's payload.
func weightAt(u flcore.Update, i int) float64 {
	if u.Weights != nil {
		return u.Weights[i]
	}
	var w [1]float64
	u.Encoded.DecodeRange(w[:], u.Base[i:i+1], i)
	return w[0]
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
	steadyStateRoundTrips(t, nil, func(c *conn, round int) (float64, float64) {
		if err := c.send(&Envelope{Type: MsgTrain, Train: &Train{Round: round, weights: model}}); err != nil {
			t.Fatal(err)
		}
		return model[0], model[len(model)-1]
	})
}

// int8Downlink returns a steadyStateRoundTrips sender for a delta+int8
// downlink: one versioned dense round, then every round a one-payload
// catch-up. The chain's payloads and the base each one leads to are built
// up front, so the aggregator end allocates no payload while the test
// measures; they are copies, since the chain writes over a payload once its
// ring drops it.
func int8Downlink(t *testing.T) func(c *conn, round int) (float64, float64) {
	model := allocModel()
	ch := (&compress.Downlink{Codec: compress.NewInt8(0)}).NewChain()
	ch.Adopt(model)
	dense := slices.Clone(model)
	payloads := [][]byte{nil}
	bases := [][2]float64{{model[0], model[len(model)-1]}}
	for round := 1; round < 13; round++ {
		for i := range model {
			model[i] += 1e-3 * float64((i+round)%5-2)
		}
		p, _ := ch.Encode(model)
		payloads = append(payloads, slices.Clone(p))
		bases = append(bases, [2]float64{ch.Base()[0], ch.Base()[len(model)-1]})
	}
	return func(c *conn, round int) (float64, float64) {
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
	}
}

// A delta+int8 downlink: the worker decodes each catch-up into the base it
// holds for its tier rather than a fresh vector.
func TestInt8CatchUpSteadyStateAllocs(t *testing.T) {
	steadyStateRoundTrips(t, nil, int8Downlink(t))
}

// An int8 uplink over a delta+int8 downlink: the worker adds each round's
// delta into its residual and encodes that into its previous payload, so a
// round trip allocates less than the payload it sends.
func TestInt8UplinkSteadyStateAllocs(t *testing.T) {
	steadyStateRoundTrips(t, compress.NewInt8(0), int8Downlink(t))
}

// A tree child decodes each pull into the pull base it holds, which is
// also its round's weights: once that base is sized, neither a dense pull
// nor a delta+int8 one allocates.
func TestTreePullSteadyStateAllocs(t *testing.T) {
	model := allocModel()
	ch := (&compress.Downlink{Codec: compress.NewInt8(0)}).NewChain()
	ch.Adopt(model)
	next := slices.Clone(model)
	for i := range next {
		next[i] += 1e-3 * float64(i%5-2)
	}
	delta, id := ch.Encode(next)
	for _, r := range []struct {
		name string
		pull *TreePull
	}{
		{"dense", &TreePull{Version: 1, Raw: nn.EncodeWeights(model)}},
		{"delta+int8", &TreePull{Version: 2, Delta: delta, DeltaBase: 1, DeltaCodec: id}},
	} {
		base, err := (&TreePull{Version: 1, Raw: nn.EncodeWeights(model)}).applyTo(nil, -1)
		if err != nil {
			t.Fatal(err)
		}
		held := &base[0]
		if got := testing.AllocsPerRun(10, func() {
			if base, err = r.pull.applyTo(base, 1); err != nil || &base[0] != held {
				t.Fatalf("%s pull: decoded in place %v, err %v", r.name, &base[0] == held, err)
			}
		}); got != 0 {
			t.Errorf("%s pull allocates %v times at steady state, want 0", r.name, got)
		}
	}
}
