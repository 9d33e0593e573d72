package flnet

import (
	"math"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/compress"
)

// initVec returns an n-weight starting model with distinct values.
func initVec(n int) []float64 {
	w := make([]float64, n)
	for i := range w {
		w[i] = float64(i%13) * 0.25
	}
	return w
}

func TestCompressedUpdateNegotiatedBothSides(t *testing.T) {
	// Two workers announcing topk@1.0 at registration; delta +1 is exactly
	// representable in float32, so the compressed run must reproduce the
	// dense FedAvg bit-for-bit while the byte accounting shows codec
	// payloads, not dense updates.
	const n = 100
	codec := compress.NewTopK(1)
	agg, err := NewAggregator("127.0.0.1:0", AggregatorConfig{
		Rounds: 3, ClientsPerRound: 2, InitialWeights: initVec(n), Seed: 11,
		RoundTimeout: 10 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer agg.Close()
	wait := startWorkers(t, agg.Addr(), []WorkerConfig{
		{ClientID: 0, NumSamples: 2, Train: echoTrain(1, 2, 0), Codec: codec},
		{ClientID: 1, NumSamples: 6, Train: echoTrain(1, 6, 0), Codec: codec},
	})
	if err := agg.WaitForWorkers(2, 5*time.Second); err != nil {
		t.Fatal(err)
	}
	res, err := agg.Run(agg.UniformSelector(2))
	if err != nil {
		t.Fatal(err)
	}
	wait()
	for i, w := range initVec(n) {
		if res.Weights[i] != w+3 {
			t.Fatalf("weight %d = %v, want %v after 3 rounds of +1", i, res.Weights[i], w+3)
		}
	}
	want := int64(3 * 2 * codec.EncodedBytes(n))
	if res.UplinkBytes != want {
		t.Fatalf("uplink = %d, want %d (3 rounds x 2 workers x payload)", res.UplinkBytes, want)
	}
	for _, rs := range res.Rounds {
		if rs.UplinkBytes != int64(2*codec.EncodedBytes(n)) {
			t.Fatalf("round %d uplink = %d", rs.Round, rs.UplinkBytes)
		}
	}
}

func TestMixedDenseAndCompressedWorkers(t *testing.T) {
	// An old (dense) worker and a compressed worker share a round: the
	// negotiation is per-worker, so both updates aggregate and each is
	// billed at its own wire size.
	const n = 100
	codec := compress.NewTopK(0.1)
	agg, err := NewAggregator("127.0.0.1:0", AggregatorConfig{
		Rounds: 1, ClientsPerRound: 2, InitialWeights: initVec(n), Seed: 12,
		RoundTimeout: 10 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer agg.Close()
	wait := startWorkers(t, agg.Addr(), []WorkerConfig{
		{ClientID: 0, NumSamples: 1, Train: echoTrain(1, 1, 0)}, // dense: no codec
		{ClientID: 1, NumSamples: 1, Train: echoTrain(1, 1, 0), Codec: codec},
	})
	if err := agg.WaitForWorkers(2, 5*time.Second); err != nil {
		t.Fatal(err)
	}
	res, err := agg.Run(agg.UniformSelector(2))
	if err != nil {
		t.Fatal(err)
	}
	wait()
	if res.Rounds[0].Used != 2 {
		t.Fatalf("used = %d, want both workers", res.Rounds[0].Used)
	}
	want := int64(compress.DenseBytes(n) + codec.EncodedBytes(n))
	if res.UplinkBytes != want {
		t.Fatalf("uplink = %d, want %d (one dense + one compressed)", res.UplinkBytes, want)
	}
	// The sparsified worker contributed only its top-k coordinates this
	// round, so the average moved somewhere in (0, 1] per coordinate.
	for i, w := range initVec(n) {
		d := res.Weights[i] - w
		if d < 0.5-1e-9 || d > 1+1e-9 {
			t.Fatalf("weight %d moved %v, want within [0.5, 1]", i, d)
		}
	}
}

func TestUnknownCodecRefusedAtRegistration(t *testing.T) {
	agg, err := NewAggregator("127.0.0.1:0", AggregatorConfig{
		Rounds: 1, ClientsPerRound: 1, InitialWeights: initVec(4), Seed: 13,
		RoundTimeout: time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer agg.Close()
	err = refusedPeer(t, dialRegister(t, agg.Addr(), Register{ClientID: 0, NumSamples: 1, Codec: 99}), agg.WaitForWorkers)
	if !strings.Contains(err.Error(), "codec 99") {
		t.Fatalf("refusal = %v, want one naming codec 99", err)
	}
}

func TestCompressedTieredAsyncLoopback(t *testing.T) {
	// The full tiered-asynchronous protocol with compression negotiated on
	// both sides: per-tier mini-rounds collect compressed deltas, commits
	// carry their wire byte counts to the committer, and the run finishes
	// with a sane model.
	const n = 200
	codec := compress.NewInt8(64)
	agg, err := NewTieredAsyncAggregator("127.0.0.1:0", tieredConfig(8, 2, 14, 10*time.Second, initVec(n)))
	if err != nil {
		t.Fatal(err)
	}
	defer agg.Close()
	var tierAssigns atomic.Int32
	cfgs := make([]WorkerConfig, 4)
	for i := range cfgs {
		cfgs[i] = WorkerConfig{
			ClientID: i, NumSamples: 5,
			Train: echoTrain(0.01, 5, time.Duration(1+i)*10*time.Millisecond),
			Codec: codec,
			OnTierAssign: func(tier, numTiers int) {
				if numTiers == 2 {
					tierAssigns.Add(1)
				}
			},
		}
	}
	wait := startWorkers(t, agg.Addr(), cfgs)
	if err := agg.WaitForWorkers(4, 5*time.Second); err != nil {
		t.Fatal(err)
	}
	res, err := agg.Run([][]int{{0, 1}, {2, 3}})
	if err != nil {
		t.Fatal(err)
	}
	wait()
	if len(res.Log) != 8 {
		t.Fatalf("commits = %d", len(res.Log))
	}
	if res.UplinkBytes <= 0 {
		t.Fatal("no uplink bytes tracked")
	}
	var fromLog int64
	for _, s := range res.Log {
		fromLog += s.UplinkBytes
		if s.Clients > 0 && s.UplinkBytes != int64(s.Clients*codec.EncodedBytes(n)) {
			t.Fatalf("commit bytes %d for %d clients, want %d each", s.UplinkBytes, s.Clients, codec.EncodedBytes(n))
		}
		// int8 payloads are ~8x below the dense wire size.
		if s.Clients > 0 && s.UplinkBytes >= int64(s.Clients*compress.DenseBytes(n))/4 {
			t.Fatalf("commit bytes %d not compressed (dense would be %d)", s.UplinkBytes, s.Clients*compress.DenseBytes(n))
		}
	}
	if fromLog != res.UplinkBytes {
		t.Fatalf("log bytes %d != total %d", fromLog, res.UplinkBytes)
	}
	// Every +0.01 echo delta quantizes within one int8 step of itself, so
	// after 8 staleness-weighted commits the model moved but stayed finite
	// and close to the dense trajectory's scale.
	for i, w := range initVec(n) {
		d := res.Weights[i] - w
		if math.IsNaN(d) || d < 0 || d > 0.1 {
			t.Fatalf("weight %d drifted by %v", i, d)
		}
	}
}

// TestUnrepliedBroadcastGoesDense: a worker whose reply to a versioned
// broadcast was not counted — here a straggler past the round timeout —
// holds a base the aggregator cannot name, so its next round arrives dense.
// A catch-up from its last counted ack would be a delta against a base the
// worker has since replaced, which it refuses as a fatal protocol error.
func TestUnrepliedBroadcastGoesDense(t *testing.T) {
	const n = 64
	cfg := tieredConfig(4, 2, 1, 500*time.Millisecond, initVec(n))
	var err error
	if cfg.Downlink, err = compress.ParseDownlink("delta+int8"); err != nil {
		t.Fatal(err)
	}
	agg, err := NewTieredAsyncAggregator("127.0.0.1:0", cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer agg.Close()
	// One tier {0, 1}, both in every round. Worker 1 sits on round 1 until
	// worker 0 is asked for round 2 — round 1 has then committed without
	// it — so its reply to round 1 finds no waiter.
	gate := newTrainGate()
	echo := echoTrain(0.01, 1, 0)
	wait := startWorkers(t, agg.Addr(), []WorkerConfig{
		{ClientID: 0, NumSamples: 1, Train: gate.openFrom(2, echo)},
		{ClientID: 1, NumSamples: 1, Train: gate.holdFrom(1, echo)},
	})
	if err := agg.WaitForWorkers(2, 5*time.Second); err != nil {
		t.Fatal(err)
	}
	res, err := agg.Run([][]int{{0, 1}})
	if err != nil {
		t.Fatal(err)
	}
	wait()
	dense, step := int64(compress.DenseBytes(n)), int64(compress.NewInt8(0).EncodedBytes(n))
	want := []struct {
		clients int
		down    int64
	}{
		{2, 2 * dense},    // first contact
		{1, 2 * step},     // worker 1 straggles
		{2, step + dense}, // worker 1 is re-sent the model
		{2, 2 * step},     // and acked again
	}
	if len(res.Log) != len(want) {
		t.Fatalf("applied %d commits, want %d", len(res.Log), len(want))
	}
	for i, rec := range res.Log {
		if rec.Clients != want[i].clients || rec.DownlinkBytes != want[i].down {
			t.Errorf("round %d: %d clients, %d downlink bytes; want %d, %d", rec.TierRound, rec.Clients, rec.DownlinkBytes, want[i].clients, want[i].down)
		}
	}
}

// TestDecodeUpdateCompressed pins the aggregator's receive path for one
// int8 update: the reconstruction is broadcast + decode(payload) bit for
// bit, built in the recycled buffer the update carries as blob (no
// intermediate delta, no allocation once the pool is warm), and a corrupt
// payload drops the update instead of yielding a partial one.
func TestDecodeUpdateCompressed(t *testing.T) {
	const n = 3000
	codec := compress.NewInt8(0)
	weights, delta := initVec(n), make([]float64, n)
	for i := range delta {
		delta[i] = 1e-3 * float64(i%17-8)
	}
	payload, rec, _ := compress.EncodeDelta(codec, delta, nil)
	w := &registered{codec: codec.ID()}
	env := &Envelope{Type: MsgCompressedUpdate, CompressedUpdate: &CompressedUpdate{
		Round: 1, ClientID: 4, NumSamples: 9, Codec: codec.ID(), Payload: payload,
	}}
	u, ok := decodeUpdate(w, env, weights)
	if !ok || u.ClientID != 4 || u.NumSamples != 9 || u.WireBytes != len(payload) || len(u.Weights) != n {
		t.Fatalf("decoded update = %+v, ok %v", u, ok)
	}
	for i := range weights {
		if want := weights[i] + rec[i]; math.Float64bits(u.Weights[i]) != math.Float64bits(want) {
			t.Fatalf("weights[%d] = %v, want %v", i, u.Weights[i], want)
		}
	}
	if u.blob == nil {
		t.Fatal("decoded update carries no buffer to recycle")
	}
	recycle(u)
	// Under the race detector sync.Pool drops Puts, so the pool is not warm.
	if got := testing.AllocsPerRun(20, func() { u, _ := decodeUpdate(w, env, weights); recycle(u) }); got != 0 && !raceEnabled {
		t.Errorf("decodeUpdate allocates %v times per recycled int8 update, want 0", got)
	}
	payload[12+2] |= 0x7F // first chunk's scale becomes NaN/huge
	payload[12+3] |= 0x7F
	if _, ok := decodeUpdate(w, env, weights); ok {
		t.Fatal("corrupt int8 update must be rejected")
	}
}
