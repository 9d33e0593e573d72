package flnet

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"reflect"
	"testing"
	"time"

	"repro/internal/compress"
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
		{Type: MsgRegister, Register: &Register{ClientID: 7, NumSamples: 99, Version: wireVersion}},
		{Type: MsgProfile, Profile: &Profile{Weights: []float64{1, 2}}},
		{Type: MsgProfileReply, ProfileReply: &ProfileReply{ClientID: 7, Seconds: 0.25}},
		{Type: MsgTrain, Train: &Train{Round: 3, Raw: nn.EncodeWeights([]float64{-1, 0, 1})}},
		{Type: MsgUpdate, Update: &Update{Round: 3, ClientID: 7, Raw: nn.EncodeWeights([]float64{5, 6, 7}), NumSamples: 4}},
		{Type: MsgCompressedUpdate, CompressedUpdate: &CompressedUpdate{Round: 3, ClientID: 7, Codec: compress.IDInt8,
			Payload: compress.NewInt8(0).Encode([]float64{0.1, 0, -0.1}), NumSamples: 4}},
		{Type: MsgDone, Done: &Done{Rounds: 8}},
		{Type: MsgTierAssign, TierAssign: &TierAssign{Tier: 1, NumTiers: 3}},
		{Type: MsgTierCommit, TierCommit: &TierCommit{Tier: 1, TierRound: 4, PulledVersion: 9, Weights: []float64{0.5}, Clients: 2, Seconds: 0.125,
			Observed: []ClientSeconds{{Client: 3, Seconds: 0.5}}}},
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

// TestBroadcastNegotiation: nothing is negotiated any more — a round has one
// blob, encoded once and shared by every recipient (bit-fidelity of the
// blob itself is TestProtocolFieldFidelity's).
func TestBroadcastNegotiation(t *testing.T) {
	bc := newBroadcast([]float64{1.5, -2.25, math.Pi, 0})
	if first, second := bc.raw(), bc.raw(); &first[0] != &second[0] {
		t.Fatal("the round's blob must be encoded once and shared")
	}
}

func TestRoundWeightsRejectsCorruptRaw(t *testing.T) {
	tr := &Train{Raw: newBroadcast([]float64{1, 2}).raw()}
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

// FuzzEnvelopeRecv feeds arbitrary bytes to the place they enter the
// program, conn.recv, and then to the decoders the handlers run on what it
// lets through: every outcome is an error or a well-formed envelope — an
// accepted update is a vector of the model's size — never a panic.
func FuzzEnvelopeRecv(f *testing.F) {
	for _, m := range allMessages() {
		var wire bytes.Buffer
		if err := newConn(streamConn{w: &wire}).send(m); err != nil {
			f.Fatal(err)
		}
		f.Add(wire.Bytes())
	}
	model := []float64{0.5, -1, 2}
	w := &registered{codec: compress.IDInt8, prevCodec: compress.IDNone}
	f.Fuzz(func(t *testing.T, data []byte) {
		c := newConn(streamConn{r: bytes.NewReader(data)})
		for {
			env, err := c.recv(0)
			if err != nil {
				return
			}
			switch env.Type {
			case MsgTrain:
				env.Train.roundWeights() //nolint:errcheck // must not panic
			case MsgTreePull:
				env.TreePull.pullWeights() //nolint:errcheck // must not panic
			case MsgUpdate, MsgCompressedUpdate:
				u, ok := decodeUpdate(w, env, model)
				if !ok {
					continue
				}
				if len(u.Weights) != len(model) {
					t.Fatalf("accepted a %d-weight update for a %d-weight model", len(u.Weights), len(model))
				}
			}
		}
	})
}
