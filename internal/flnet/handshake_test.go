package flnet

import (
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"strings"
	"testing"
	"time"

	"repro/internal/compress"
	"repro/internal/faultnet"
)

// dialRegister is a hand-rolled peer's first step: connect and send reg.
func dialRegister(t *testing.T, addr string, reg Register) *conn {
	t.Helper()
	raw, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	c := newConn(raw)
	if err := c.send(&Envelope{Type: MsgRegister, Register: &reg}); err != nil {
		t.Fatal(err)
	}
	return c
}

// dialRegisterAs is dialRegister from a build of another wire version: the
// registration frame this build writes, with the header's version replaced.
// The refusal that comes back is read as this build reads it.
func dialRegisterAs(t *testing.T, addr string, version uint16, reg Register) *conn {
	t.Helper()
	frame := frameOf(t, &Envelope{Type: MsgRegister, Register: &reg})
	binary.LittleEndian.PutUint16(frame[4:], version)
	raw, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := raw.Write(frame); err != nil {
		t.Fatal(err)
	}
	return newConn(raw)
}

// refusedPeer takes a hand-rolled peer that has sent its registration and
// returns the refusal it reads, having checked that it is a fatal error,
// that the peer never counted in wait (the aggregator's WaitForWorkers or
// WaitForChildren, whose accept loop serves the attempt), and that the
// aggregator hung up afterwards.
func refusedPeer(t *testing.T, c *conn, wait func(int, time.Duration) error) error {
	t.Helper()
	defer c.close() //nolint:errcheck // test shutdown
	if err := wait(1, 300*time.Millisecond); err == nil {
		t.Fatal("refused peer registered")
	}
	_, refusal := c.recv(2 * time.Second)
	var fatal *fatalWorkerError
	if !errors.As(refusal, &fatal) {
		t.Fatalf("refusal reached the peer as %v, want a fatal error", refusal)
	}
	if _, err := c.recv(2 * time.Second); err == nil || errors.As(err, &fatal) {
		t.Fatalf("refused connection left open (%v)", err)
	}
	return refusal
}

// TestHandshakeRefusesOtherVersions: a registration whose frame announces
// any wire version but this build's is refused naming both numbers. Workers
// and tree children take the same path.
func TestHandshakeRefusesOtherVersions(t *testing.T) {
	for name, tc := range map[string]struct {
		version uint16
		reg     Register
	}{
		"version 0":        {0, Register{ClientID: 0, NumSamples: 1}},
		"an older version": {wireVersion - 1, Register{ClientID: 0, NumSamples: 1}},
		"a newer version":  {wireVersion + 1, Register{ClientID: 0, NumSamples: 1}},
		"child aggregator": {wireVersion + 1, Register{ClientID: 0, NumSamples: 2, Role: RoleChildAggregator, Members: []int{0, 1}}},
	} {
		t.Run(name, func(t *testing.T) {
			reg := tc.reg
			agg, err := NewTieredAsyncAggregator("127.0.0.1:0", tieredConfig(1, 1, 1, 0, []float64{0}))
			if err != nil {
				t.Fatal(err)
			}
			defer agg.Close()
			wait := agg.WaitForWorkers
			if reg.Role == RoleChildAggregator {
				wait = agg.WaitForChildren
			}
			err = refusedPeer(t, dialRegisterAs(t, agg.Addr(), tc.version, reg), wait)
			for _, want := range []string{fmt.Sprintf("wire version %d", tc.version), fmt.Sprintf("speaks %d", wireVersion)} {
				if !strings.Contains(err.Error(), want) {
					t.Fatalf("refusal %q does not name %q", err, want)
				}
			}
		})
	}
}

// stubAggregator answers every connection's registration with reply, then
// holds the connection until the worker hangs up. It keeps accepting, so a
// worker that wrongly redials is served again — and counted by its dialer.
func stubAggregator(t *testing.T, reply *Envelope) string {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() }) //nolint:errcheck // test shutdown
	go func() {
		for {
			raw, err := ln.Accept()
			if err != nil {
				return
			}
			go func() {
				c := newConn(raw)
				defer c.close() //nolint:errcheck // test shutdown
				if _, err := c.recv(5 * time.Second); err == nil && c.send(reply) == nil {
					c.recv(5 * time.Second) //nolint:errcheck // wait for the worker's close
				}
			}()
		}
	}()
	return ln.Addr().String()
}

// alienCodec announces a codec ID no build decodes.
type alienCodec struct{ compress.Int8 }

func (alienCodec) ID() byte { return 99 }

// TestWorkerFailsOnceOnWhatNoRedialCures: a Reconnect worker ends after
// exactly one dial, with a fatal error that says why, on a reasoned refusal
// (codec, wire version), on a message without its payload (a nil
// dereference before conn.recv checked) and on a Train with no weights in
// either encoding — which must never reach the TrainFunc as a nil vector.
func TestWorkerFailsOnceOnWhatNoRedialCures(t *testing.T) {
	agg, err := NewAggregator("127.0.0.1:0", AggregatorConfig{
		Rounds: 1, ClientsPerRound: 1, InitialWeights: []float64{0}, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer agg.Close()
	go agg.WaitForWorkers(1, 5*time.Second) //nolint:errcheck // the accept loop; nobody registers
	versionRefusal := &Done{Reason: (&wireVersionError{peer: wireVersion + 1}).Error()}
	for _, tc := range []struct {
		name  string
		addr  string
		codec compress.Codec
		want  []string // substrings of the worker's error
	}{
		{"unknown codec at a real aggregator", agg.Addr(), alienCodec{}, []string{"refused", "codec 99"}},
		{"wire version", stubAggregator(t, &Envelope{Type: MsgDone, Done: versionRefusal}), nil,
			[]string{"refused", fmt.Sprintf("wire version %d", wireVersion+1), fmt.Sprintf("speaks %d", wireVersion)}},
		{"Train with neither Raw nor Delta", stubAggregator(t, &Envelope{Type: MsgTrain, Train: &Train{Round: 1, Seq: 1}}), nil, []string{"round 1"}},
		{"MsgTrain without its payload", stubAggregator(t, &Envelope{Type: MsgTrain}), nil, []string{"without its payload"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			tr := faultnet.New(faultnet.Schedule{})
			err := RunWorker(tc.addr, WorkerConfig{
				ClientID: 0, NumSamples: 1, Codec: tc.codec, Dial: tr.Dial,
				Train: func(round int, w []float64) ([]float64, int, error) {
					t.Errorf("TrainFunc called for round %d with %v", round, w)
					return w, 1, nil
				},
				Reconnect: true, MaxReconnects: 3, ReconnectBase: 5 * time.Millisecond,
				RPCTimeout: 5 * time.Second,
			})
			var fatal *fatalWorkerError
			if !errors.As(err, &fatal) {
				t.Fatalf("worker returned %v, want a fatal error", err)
			}
			for _, want := range tc.want {
				if !strings.Contains(err.Error(), want) {
					t.Errorf("error %q does not mention %q", err, want)
				}
			}
			if got := tr.Dials(); got != 1 {
				t.Fatalf("worker dialed %d times, want exactly 1", got)
			}
		})
	}
}
