package flnet

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"reflect"
	"runtime"
	"slices"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/compress"
	"repro/internal/flcore"
	"repro/internal/nn"
)

// pipePair returns two connected protocol endpoints over an in-memory pipe.
func pipePair() (*conn, *conn) {
	a, b := net.Pipe()
	return newConn(a), newConn(b)
}

// allMessages is one well-formed envelope per message type; the two updates
// are ones a 3-weight model's aggregator accepts.
func allMessages() []*Envelope {
	return []*Envelope{
		{Type: MsgRegister, Register: &Register{ClientID: 7, NumSamples: 99}},
		{Type: MsgProfile, Profile: &Profile{Weights: []float64{1, 2}}},
		{Type: MsgProfileReply, ProfileReply: &ProfileReply{ClientID: 7, Seconds: 0.25}},
		{Type: MsgTrain, Train: &Train{Round: 3, Raw: nn.EncodeWeights([]float64{-1, 0, 1})}},
		{Type: MsgUpdate, Update: &Update{Round: 3, ClientID: 7, Raw: nn.EncodeWeights([]float64{5, 6, 7}), NumSamples: 4}},
		{Type: MsgCompressedUpdate, CompressedUpdate: &CompressedUpdate{Round: 3, ClientID: 7, Codec: compress.IDInt8,
			Payload: compress.NewInt8(0).Encode([]float64{0.1, 0, -0.1}), NumSamples: 4}},
		{Type: MsgDone, Done: &Done{Rounds: 8}},
		{Type: MsgTierAssign, TierAssign: &TierAssign{Tier: 1, NumTiers: 3}},
		{Type: MsgTierCommit, TierCommit: &TierCommit{Commit: flcore.Commit{Tier: 1, TierRound: 4, PulledVersion: 9, Weights: []float64{0.5},
			Observed: []flcore.Observation{{Client: 3, Seconds: 0.5}}}, Clients: 2, Seconds: 0.125}},
		{Type: MsgTierReassign, TierReassign: &TierReassign{From: 0, To: 2, NumTiers: 3}},
		{Type: MsgTreePull, TreePull: &TreePull{Version: 2, Raw: nn.EncodeWeights([]float64{0.5})}},
	}
}

func TestProtocolRoundTripAllTypes(t *testing.T) {
	msgs := allMessages()
	if len(msgs) != int(MsgTreePull) {
		t.Fatalf("%d messages for %d message types", len(msgs), MsgTreePull)
	}
	var wire bytes.Buffer
	c := newConn(streamConn{r: &wire, w: &wire})
	for _, want := range msgs {
		if err := c.send(want); err != nil {
			t.Fatal(err)
		}
		got, err := c.recv(0)
		if err != nil {
			t.Fatal(err)
		}
		got.blob = nil // the receive buffer's handle is not part of the message
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("type %d arrived as %+v, want %+v", want.Type, got, want)
		}
	}
}

func TestProtocolFieldFidelity(t *testing.T) {
	a, b := pipePair()
	defer a.close() //nolint:errcheck
	defer b.close() //nolint:errcheck
	weights := []float64{3.14159, -2.71828, 0, 1e-300}
	go a.send(&Envelope{Type: MsgTrain, Train: &Train{Round: 42, Raw: nn.EncodeWeights(weights)}}) //nolint:errcheck
	got, err := b.recv(2 * time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if got.Train.Round != 42 {
		t.Fatalf("round = %d", got.Train.Round)
	}
	back, err := got.Train.roundWeights()
	if err != nil {
		t.Fatal(err)
	}
	for i, w := range weights {
		if back[i] != w {
			t.Fatalf("weights = %v", back)
		}
	}
}

func TestProtocolRecvTimeout(t *testing.T) {
	a, b := pipePair()
	defer a.close() //nolint:errcheck
	defer b.close() //nolint:errcheck
	start := time.Now()
	_, err := b.recv(100 * time.Millisecond)
	if err == nil {
		t.Fatal("recv with no sender must time out")
	}
	if time.Since(start) > 2*time.Second {
		t.Fatal("timeout not honored")
	}
}

func TestProtocolRecvAfterClose(t *testing.T) {
	a, b := pipePair()
	a.close() //nolint:errcheck
	if _, err := b.recv(200 * time.Millisecond); err == nil {
		t.Fatal("recv from closed peer must error")
	}
}

// TestRecvRequiresMatchingPayload is the one structural check every handler
// relies on, one row per message type: an envelope whose payload pointer
// for its Type is nil never leaves conn.recv, and neither does a Type this
// build does not know.
func TestRecvRequiresMatchingPayload(t *testing.T) {
	bad := []*Envelope{{Type: 0, Done: &Done{}}, {Type: MsgTreePull + 1, Done: &Done{}}}
	for _, good := range allMessages() {
		bad = append(bad, &Envelope{Type: good.Type})
	}
	for _, env := range bad {
		t.Run(fmt.Sprintf("type %d", env.Type), func(t *testing.T) {
			var wire bytes.Buffer
			if err := newConn(streamConn{w: &wire}).send(env); err != nil {
				t.Fatal(err)
			}
			got, err := newConn(streamConn{r: &wire}).recv(0)
			var fatal *fatalWorkerError
			if !errors.As(err, &fatal) {
				t.Fatalf("recv returned (%+v, %v), want a fatal protocol error", got, err)
			}
		})
	}
}

// TestBroadcastNegotiation: nothing is negotiated any more — every member
// of a round is sent the same frame, written from the round's base vector,
// which nothing copies or changes (bit-fidelity of the blob itself is
// TestProtocolFieldFidelity's).
func TestBroadcastNegotiation(t *testing.T) {
	base := []float64{1.5, -2.25, math.Pi, 0}
	before := slices.Clone(base)
	first := frameOf(t, &Envelope{Type: MsgTrain, Train: &Train{Round: 2, weights: base}})
	second := frameOf(t, &Envelope{Type: MsgTrain, Train: &Train{Round: 2, weights: base}})
	if !bytes.Equal(first, second) || !slices.Equal(base, before) {
		t.Fatal("a round's members must be sent one frame, and the base left as it is")
	}
}

// TestVectorBlobsAreTheEncodedForm: a vector sent as its header plus its
// own bytes is, byte for byte, the frame the nn.AppendWeights encoding
// gave — for a Train broadcast, an Update, a TreePull, a Profile and a
// TierCommit, with NaN, ±Inf, −0 and a subnormal among the weights. Where
// the message has a Raw field the whole frame equals the encoded Raw's.
func TestVectorBlobsAreTheEncodedForm(t *testing.T) {
	w := []float64{1.5, math.Copysign(0, -1), math.NaN(), math.Inf(-1), math.SmallestNonzeroFloat64, -7}
	enc := nn.AppendWeights(nil, w)
	rows := []struct {
		name      string
		vec, want *Envelope // want: the same message with Raw encoded, or nil
	}{
		{"broadcast",
			&Envelope{Type: MsgTrain, Train: &Train{Round: 3, Seq: 9, Tier: 1, Version: 4, weights: w}},
			&Envelope{Type: MsgTrain, Train: &Train{Round: 3, Seq: 9, Tier: 1, Version: 4, Raw: enc}}},
		{"update",
			&Envelope{Type: MsgUpdate, Update: &Update{Round: 3, ClientID: 7, NumSamples: 4, Seconds: 0.5, Seq: 9, weights: w}},
			&Envelope{Type: MsgUpdate, Update: &Update{Round: 3, ClientID: 7, NumSamples: 4, Seconds: 0.5, Seq: 9, Raw: enc}}},
		{"pull",
			&Envelope{Type: MsgTreePull, TreePull: &TreePull{Version: 5, weights: w}},
			&Envelope{Type: MsgTreePull, TreePull: &TreePull{Version: 5, Raw: enc}}},
		{"profile", &Envelope{Type: MsgProfile, Profile: &Profile{Weights: w}}, nil},
		{"commit", &Envelope{Type: MsgTierCommit, TierCommit: &TierCommit{Commit: flcore.Commit{Tier: 1, TierRound: 2, Weights: w,
			Observed: []flcore.Observation{{Client: 3, Seconds: 0.5}}}, Clients: 1}}, nil},
	}
	for _, r := range rows {
		t.Run(r.name, func(t *testing.T) {
			got := frameOf(t, r.vec)
			if r.want != nil && !bytes.Equal(got, frameOf(t, r.want)) {
				t.Fatal("the frame differs from the one the encoded Raw gives")
			}
			metaLen := int(binary.LittleEndian.Uint32(got[8:]))
			blobLen := int(binary.LittleEndian.Uint32(got[12:]))
			if got[7] != flagBlob || blobLen != len(enc) || !bytes.Equal(got[frameHeaderLen+metaLen:], enc) {
				t.Fatalf("flags %#x, a %d-byte blob: want flagBlob and the %d-byte nn.AppendWeights form", got[7], blobLen, len(enc))
			}
		})
	}
}

func TestRoundWeightsRejectsCorruptRaw(t *testing.T) {
	tr := &Train{Raw: nn.EncodeWeights([]float64{1, 2})}
	tr.Raw[0] ^= 0xFF // break the magic
	if _, err := tr.roundWeights(); err == nil {
		t.Fatal("corrupt raw payload must error")
	}
}

func TestDecodeUpdateFastWire(t *testing.T) {
	w := &registered{codec: 0}
	weights := []float64{0.5, -1, 2}
	env := &Envelope{Type: MsgUpdate, Update: &Update{
		Round: 1, ClientID: 4, NumSamples: 9, Raw: nn.EncodeWeights(weights),
	}}
	u, ok := decodeUpdate(w, env, weights)
	if !ok {
		t.Fatal("fast-wire update must decode")
	}
	if u.ClientID != 4 || u.NumSamples != 9 || len(u.Weights) != 3 {
		t.Fatalf("decoded update = %+v", u)
	}
	for i, v := range weights {
		if math.Float64bits(u.Weights[i]) != math.Float64bits(v) {
			t.Fatalf("weights[%d] = %v, want %v", i, u.Weights[i], v)
		}
	}
	// A corrupt payload is treated like a dropped worker, not a dead round.
	env.Update.Raw[0] ^= 0xFF
	if _, ok := decodeUpdate(w, env, weights); ok {
		t.Fatal("corrupt fast-wire update must be rejected")
	}
}

// streamConn is an in-memory net.Conn half: reads come from r, writes go to
// w. conn never touches the rest of the interface without a timeout.
type streamConn struct {
	net.Conn
	r io.Reader
	w io.Writer
}

func (c streamConn) Read(p []byte) (int, error)  { return c.r.Read(p) }
func (c streamConn) Write(p []byte) (int, error) { return c.w.Write(p) }

// frameOf is env as a fresh connection writes it: the header, the control
// part with gob's type descriptions, the blob.
func frameOf(t testing.TB, env *Envelope) []byte {
	t.Helper()
	var wire bytes.Buffer
	if err := newConn(streamConn{w: &wire}).send(env); err != nil {
		t.Fatal(err)
	}
	return wire.Bytes()
}

// TestBlobPresenceRidesInFlags: which bulk field arrives, and whether one
// does, is the header's flags, not the blob's length — an empty payload
// comes out empty and non-nil, an absent one nil, Raw and Delta never swap,
// and a catch-up's payloads come back apart, cut by the lengths that rode
// in the control part.
func TestBlobPresenceRidesInFlags(t *testing.T) {
	for name, tr := range map[string]*Train{
		"empty Raw":   {Round: 1, Raw: []byte{}},
		"empty Delta": {Round: 1, Delta: [][]byte{}, DeltaBase: 3},
		"Delta":       {Round: 1, Delta: [][]byte{{1, 2, 3}}, DeltaBase: 3},
		"catch-up":    {Round: 1, Delta: [][]byte{{1, 2}, {3}, {4, 5, 6}}, DeltaBase: 3},
		"neither":     {Round: 1},
	} {
		t.Run(name, func(t *testing.T) {
			got, err := newConn(streamConn{r: bytes.NewReader(frameOf(t, &Envelope{Type: MsgTrain, Train: tr}))}).recv(0)
			if err != nil {
				t.Fatal(err)
			}
			if (got.Train.Raw == nil) != (tr.Raw == nil) || (got.Train.Delta == nil) != (tr.Delta == nil) ||
				!bytes.Equal(got.Train.Raw, tr.Raw) || !reflect.DeepEqual(got.Train.Delta, tr.Delta) || got.Train.DeltaLens != nil {
				t.Fatalf("sent Raw %v Delta %v, received Raw %v Delta %v (lengths %v)", tr.Raw, tr.Delta, got.Train.Raw, got.Train.Delta, got.Train.DeltaLens)
			}
		})
	}
}

// TestRecvRefusesBadFrames: one row per way a byte stream can lie about the
// frame it holds. Every row is an error — fatal when the frame itself is
// wrong, retryable when it was merely cut short — and none panics, hangs
// (the stream ends) or allocates for a length the header only claims.
func TestRecvRefusesBadFrames(t *testing.T) {
	done := frameOf(t, &Envelope{Type: MsgDone, Done: &Done{Rounds: 8}})
	update := frameOf(t, &Envelope{Type: MsgUpdate, Update: &Update{Round: 3, ClientID: 7, Raw: nn.EncodeWeights([]float64{5, 6, 7})}})
	commit := frameOf(t, &Envelope{Type: MsgTierCommit, TierCommit: &TierCommit{Commit: flcore.Commit{Tier: 1, Weights: []float64{0.5}}}})
	catchUp := frameOf(t, &Envelope{Type: MsgTrain, Train: &Train{Delta: [][]byte{{1, 2}, {3}}}}) // lengths [2 1]
	// header returns frame with its header rewritten by edit.
	header := func(frame []byte, edit func(h []byte)) []byte {
		out := append([]byte(nil), frame...)
		edit(out[:frameHeaderLen])
		return out
	}
	u16, u32 := binary.LittleEndian.PutUint16, binary.LittleEndian.PutUint32
	const gib = 1 << 30
	agg := blobBound(3) // a 3-weight model's aggregator
	for _, tc := range []struct {
		name  string
		frame []byte
		fatal bool
		lean  bool  // the header claims far more than the stream holds: recv must not allocate for it
		bound int64 // the connection's blob bound; 0 = no model known (a worker, a child's root link): the fixed ceiling
	}{
		{"wrong magic", header(done, func(h []byte) { h[0] ^= 0xFF }), true, false, agg},
		{"gob straight on the socket", []byte("\x1f\xff\x81\x03\x01\x01\x08Envelope\x01\xff\x82\x00\x01\x0c"), true, false, agg},
		{"wrong version", header(done, func(h []byte) { u16(h[4:], wireVersion+1) }), true, false, agg},
		{"message type 0", header(done, func(h []byte) { h[6] = 0 }), true, false, agg},
		{"unknown message type", header(done, func(h []byte) { h[6] = byte(MsgTreePull) + 1 }), true, false, agg},
		{"header type is not the envelope's", header(done, func(h []byte) { h[6] = byte(MsgTierAssign) }), true, false, agg},
		{"unknown flag bits", header(done, func(h []byte) { h[7] = 0x80 }), true, false, agg},
		{"metaLen over the bound", header(done, func(h []byte) { u32(h[8:], maxMetaBytes+1) }), true, true, agg},
		{"metaLen claims 1 GiB", header(done, func(h []byte) { u32(h[8:], gib) }), true, true, agg},
		{"blobLen over the aggregator's bound", header(update, func(h []byte) { u32(h[12:], uint32(blobBound(3))+1) }), true, false, agg},
		{"blobLen claims 1 GiB", header(update, func(h []byte) { u32(h[12:], gib) }), true, true, agg},
		{"blobLen claims 1 GiB, no model known", header(update, func(h []byte) { u32(h[12:], gib) }), true, true, 0},
		{"blob on a message that carries none", append(header(done, func(h []byte) { h[7] = flagBlob; u32(h[12:], 4) }), 1, 2, 3, 4), true, false, agg},
		{"blobLen without the blob flag", header(update, func(h []byte) { h[7] = 0 }), true, false, agg},
		{"Delta flag on a message with no Delta", header(update, func(h []byte) { h[7] = flagBlob | flagDelta }), true, false, agg},
		{"Delta flag without the blob flag", header(frameOf(t, &Envelope{Type: MsgTrain, Train: &Train{}}), func(h []byte) { h[7] = flagDelta }), true, false, agg},
		{"stray control bytes", append(header(done, func(h []byte) { u32(h[8:], uint32(len(done)-frameHeaderLen+2)) }), 0, 0), true, false, agg},
		{"control part is not gob", header(append(done[:frameHeaderLen:frameHeaderLen], 0xFF, 0xFF, 0xFF, 0xFF), func(h []byte) { u32(h[8:], 4) }), true, false, agg},
		{"weights blob is not an nn.EncodeWeights vector", header(commit, func(h []byte) { u32(h[12:], 9) }), true, false, agg},
		{"tier commit holding a NaN", frameOf(t, &Envelope{Type: MsgTierCommit, TierCommit: &TierCommit{Commit: flcore.Commit{Weights: []float64{0.5, math.NaN()}}}}), true, false, agg},
		{"catch-up lengths short of the blob", append(header(catchUp, func(h []byte) { u32(h[12:], 4) }), 9), true, false, agg},
		{"catch-up lengths past the blob", header(catchUp[:len(catchUp)-1], func(h []byte) { u32(h[12:], 2) }), true, false, agg},
		{"empty payload in a catch-up", frameOf(t, &Envelope{Type: MsgTrain, Train: &Train{Delta: [][]byte{{1, 2}, {}}}}), true, false, agg},
		{"catch-up lengths on a dense train", frameOf(t, &Envelope{Type: MsgTrain, Train: &Train{Raw: []byte{1, 2, 3}, DeltaLens: []int{3}}}), true, false, agg},
		{"truncated header", done[:frameHeaderLen/2], false, false, agg},
		{"truncated control part", done[:len(done)-3], false, false, agg},
		{"truncated blob", update[:len(update)-5], false, false, agg},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c := newConn(streamConn{r: bytes.NewReader(tc.frame)})
			c.limit = new(atomic.Int64)
			c.limit.Store(tc.bound)
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			env, err := c.recv(0)
			runtime.ReadMemStats(&after)
			if err == nil {
				t.Fatalf("recv accepted %+v", env)
			}
			var fatal *fatalWorkerError
			if errors.As(err, &fatal) != tc.fatal {
				t.Fatalf("recv returned %v; fatal = %v, want %v", err, !tc.fatal, tc.fatal)
			}
			if grew := after.TotalAlloc - before.TotalAlloc; tc.lean && grew > 64<<10 {
				t.Fatalf("recv allocated %d bytes for a length the header only claimed", grew)
			}
		})
	}
}

// FuzzEnvelopeRecv feeds arbitrary bytes to the place they enter the
// program, conn.recv on an aggregator's connection, and then to the decoders
// the handlers run on what it lets through: every outcome is an error or a
// well-formed envelope — an accepted update is a vector of the model's size,
// finite when it came dense — never a panic. The corpus is one valid frame
// per message type plus what a hostile peer starts from: a lying length, a
// cut stream, no magic.
func FuzzEnvelopeRecv(f *testing.F) {
	for _, m := range allMessages() {
		frame := frameOf(f, m)
		f.Add(frame)
		f.Add(frame[:len(frame)-1])
		oversized := append([]byte(nil), frame...)
		binary.LittleEndian.PutUint32(oversized[12:], 1<<30)
		f.Add(oversized)
	}
	f.Add([]byte("not a frame at all"))
	model := []float64{0.5, -1, 2}
	ch := (&compress.Downlink{Codec: compress.NewInt8(0)}).NewChain()
	ch.Adopt(model)
	ch.Encode([]float64{0.25, -1, 2.5})
	ch.Encode([]float64{0, -1, 3})
	parts, _ := ch.CatchUp(1)
	f.Add(frameOf(f, &Envelope{Type: MsgTrain, Train: &Train{Round: 2, Version: 3, Delta: parts, DeltaBase: 1, DeltaCodec: compress.IDInt8}}))
	w := &registered{codec: compress.IDInt8, prevCodec: compress.IDNone}
	var limit atomic.Int64
	limit.Store(blobBound(len(model)))
	f.Fuzz(func(t *testing.T, data []byte) {
		c := newConn(streamConn{r: bytes.NewReader(data)})
		c.limit = &limit
		for {
			env, err := c.recv(0)
			if err != nil {
				return
			}
			switch env.Type {
			case MsgTrain:
				if env.Train.Delta != nil {
					compress.ApplyCatchUp(nil, env.Train.DeltaCodec, env.Train.Delta, model) //nolint:errcheck // must not panic
				} else {
					env.Train.roundWeights() //nolint:errcheck // must not panic
				}
			case MsgTreePull:
				env.TreePull.pullWeights(nil) //nolint:errcheck // must not panic
			case MsgUpdate, MsgCompressedUpdate:
				u, ok := decodeUpdate(w, env, model)
				if !ok {
					continue
				}
				uw := updateWeights(u.Update)
				if len(uw) != len(model) {
					t.Fatalf("accepted a %d-weight update for a %d-weight model", len(uw), len(model))
				}
				for _, v := range uw {
					if env.Type == MsgUpdate && (math.IsNaN(v) || math.IsInf(v, 0)) {
						t.Fatalf("accepted a dense update holding %v", v)
					}
				}
			}
			env.release()
		}
	})
}
