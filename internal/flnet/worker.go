package flnet

import (
	"errors"
	"fmt"
	"hash/fnv"
	"net"
	"time"

	"repro/internal/compress"
	"repro/internal/nn"
)

// TrainFunc runs one local training pass starting from the given global
// weights and returns the updated weights and the number of samples trained
// (the FedAvg aggregation weight). round is -1 for profiling tasks.
//
// weights is valid only for the duration of the call: the worker decodes
// every broadcast into the same buffer, so an implementation that wants the
// vector later copies it (nn.Model.SetWeightsVector does). Returning weights
// itself, modified or not, is fine. newWeights is read until the update is
// sent, before the next call.
type TrainFunc func(round int, weights []float64) (newWeights []float64, numSamples int, err error)

// WorkerConfig configures one FL client worker process.
type WorkerConfig struct {
	ClientID   int
	NumSamples int
	Train      TrainFunc
	// DialTimeout bounds the initial connection (default 5s).
	DialTimeout time.Duration
	// Dial overrides the transport used to reach the aggregator (default
	// TCP via net.DialTimeout). Chaos tests inject faultnet transports
	// here; it also hooks proxies or TLS dialers without touching the
	// protocol code.
	Dial func(addr string, timeout time.Duration) (net.Conn, error)
	// Reconnect enables the self-healing loop: when the connection drops
	// mid-run the worker redials with capped exponential backoff plus
	// deterministic jitter, re-registers under the same ClientID, and
	// resumes serving requests. The aggregator re-announces the tier it
	// still holds for the worker, and the delta-downlink scheme composes
	// automatically — a fresh registration starts unacked, so the first
	// broadcast after a rejoin is always the dense snapshot.
	Reconnect bool
	// MaxReconnects bounds consecutive failed reconnection attempts
	// before RunWorker gives up (default 8; the counter resets every time
	// a session makes progress, i.e. receives at least one message).
	MaxReconnects int
	// ReconnectBase/ReconnectMax bound the backoff delays (defaults
	// 50ms / 2s). The delay for attempt k is in [d/2, d] for
	// d = min(ReconnectBase·2^(k-1), ReconnectMax), with the jitter drawn
	// deterministically from (ClientID, k) — a restarted fleet replays
	// exactly the same reconnect storm, keeping chaos runs reproducible.
	ReconnectBase, ReconnectMax time.Duration
	// RPCTimeout bounds every wait for the next aggregator message and
	// every send (0 = block forever, the historical behaviour). With
	// Reconnect set, a timed-out wait tears the session down and re-enters
	// the backoff loop, so a worker parked on a half-open connection
	// cycles it instead of hanging for the rest of the run.
	RPCTimeout time.Duration
	// OnReconnect, if set, observes each reconnection attempt just before
	// the redial (attempt counts consecutive failures so far, starting
	// at 1).
	OnReconnect func(attempt int)
	// OnTierAssign, if set, receives the worker's tier placement when a
	// tiered-async aggregator announces it (tier 0 is fastest).
	OnTierAssign func(tier, numTiers int)
	// OnTierReassign, if set, receives live re-tiering migrations: the
	// aggregator moved this worker from tier `from` to tier `to` mid-run.
	OnTierReassign func(from, to, numTiers int)
	// ReportSeconds, if set, overrides the worker's self-reported training
	// duration for the given round (by default the wall-clock time of the
	// Train call). The report feeds the aggregator's live tiering EWMA
	// estimates; tests inject simulated latencies here so distributed runs
	// re-tier exactly like their simulated counterparts.
	ReportSeconds func(round int) float64
	// Codec, if set, compresses this worker's uplink updates: each trained
	// delta (plus the error-feedback residual from earlier rounds) is
	// encoded and sent as a MsgCompressedUpdate instead of a dense
	// MsgUpdate. The codec is announced at registration; an aggregator
	// that cannot decode it refuses the handshake. Secure-aggregation
	// rounds (Train.Participants set) always send dense masked updates —
	// pairwise masks are full-entropy vectors no lossy codec may touch.
	// A tiered-async aggregator running per-tier compression policy may
	// renegotiate the codec when a live re-tiering migrates this worker
	// (MsgTierReassign with Renegotiate set); the worker then switches
	// from its next round on and resets its error-feedback residual.
	Codec compress.Codec
	// OnCodecRenegotiate, if set, observes each applied codec switch with
	// the new codec's spec (compress.Parse syntax, "none" for dense).
	OnCodecRenegotiate func(spec string)
}

// fatalWorkerError marks session failures that reconnecting cannot cure —
// application errors (a failing TrainFunc, an unparsable renegotiated
// codec), protocol violations and the aggregator's reasoned refusals (both
// raised by conn.recv). The reconnect loop gives up on these immediately
// instead of burning its attempt budget.
type fatalWorkerError struct{ err error }

func (e *fatalWorkerError) Error() string { return e.err.Error() }
func (e *fatalWorkerError) Unwrap() error { return e.err }

func fatalf(format string, args ...any) error {
	return &fatalWorkerError{err: fmt.Errorf(format, args...)}
}

// backoffDelay is attempt k's capped exponential backoff with
// deterministic jitter: the base delay doubles per attempt up to max, and
// the final delay lands in [d/2, d] keyed on (clientID, attempt) via FNV —
// distinct workers spread out, yet a replayed run waits exactly as long.
func backoffDelay(clientID, attempt int, base, max time.Duration) time.Duration {
	d := base
	for i := 1; i < attempt && d < max; i++ {
		d *= 2
	}
	if d > max {
		d = max
	}
	h := fnv.New64a()
	var key [16]byte
	for i := 0; i < 8; i++ {
		key[i] = byte(uint64(clientID) >> (8 * i))
		key[8+i] = byte(uint64(attempt) >> (8 * i))
	}
	h.Write(key[:]) //nolint:errcheck // hash writes cannot fail
	span := uint64(d)/2 + 1
	return d/2 + time.Duration(h.Sum64()%span)
}

// RunWorker connects to the aggregator at addr, registers, and serves
// profiling and training requests until the aggregator sends Done or the
// connection drops. It returns nil on a clean Done. With cfg.Reconnect
// set, a dropped connection re-enters a capped-exponential-backoff redial
// loop instead of ending the run.
func RunWorker(addr string, cfg WorkerConfig) error {
	if cfg.Train == nil {
		return fmt.Errorf("flnet: worker %d has no TrainFunc", cfg.ClientID)
	}
	dt := cfg.DialTimeout
	if dt <= 0 {
		dt = 5 * time.Second
	}
	dial := cfg.Dial
	if dial == nil {
		dial = func(addr string, timeout time.Duration) (net.Conn, error) {
			return net.DialTimeout("tcp", addr, timeout)
		}
	}
	maxAttempts := cfg.MaxReconnects
	if maxAttempts <= 0 {
		maxAttempts = 8
	}
	base := cfg.ReconnectBase
	if base <= 0 {
		base = 50 * time.Millisecond
	}
	maxDelay := cfg.ReconnectMax
	if maxDelay <= 0 {
		maxDelay = 2 * time.Second
	}
	attempt := 0
	for {
		progressed, err := runWorkerSession(addr, dial, dt, cfg)
		if err == nil {
			return nil
		}
		var fatal *fatalWorkerError
		if !cfg.Reconnect || errors.As(err, &fatal) {
			return err
		}
		if progressed {
			attempt = 0
		}
		attempt++
		if attempt > maxAttempts {
			return fmt.Errorf("flnet: worker %d: giving up after %d reconnect attempts: %w", cfg.ClientID, maxAttempts, err)
		}
		time.Sleep(backoffDelay(cfg.ClientID, attempt, base, maxDelay))
		if cfg.OnReconnect != nil {
			cfg.OnReconnect(attempt)
		}
	}
}

// runWorkerSession runs one connection's lifetime: dial, register, serve
// until Done (nil error), a transport failure (retryable), or a fatal
// application error. progressed reports whether the aggregator engaged the
// session (at least one message arrived), which resets the reconnect
// budget. All per-session state — the error-feedback residual, the
// delta-downlink base, the renegotiated codec — is scoped here: a fresh
// session starts from the registration defaults, matching the
// aggregator's view of a fresh unacked registration.
func runWorkerSession(addr string, dial func(string, time.Duration) (net.Conn, error), dt time.Duration, cfg WorkerConfig) (progressed bool, err error) {
	raw, err := dial(addr, dt)
	if err != nil {
		return false, fmt.Errorf("flnet: worker %d dial: %w", cfg.ClientID, err)
	}
	c := newConn(raw)
	c.writeTimeout = cfg.RPCTimeout
	defer c.close()    //nolint:errcheck // shutdown path
	codec := cfg.Codec // current uplink codec; renegotiated on migrations
	reg := &Register{ClientID: cfg.ClientID, NumSamples: cfg.NumSamples}
	if codec != nil {
		reg.Codec = codec.ID()
	}
	if err := c.send(&Envelope{Type: MsgRegister, Register: reg}); err != nil {
		return false, err
	}
	var residual []float64 // error-feedback state across compressed rounds
	var delta []float64    // uplink delta scratch, reused every round
	// The round's weights and the encoded dense update live in session-owned
	// buffers: the loop is strictly sequential, so each round overwrites the
	// last one's (see TrainFunc for what that asks of cfg.Train).
	var tw []float64
	var upRaw []byte
	// Delta-downlink base: the last versioned broadcast this worker
	// received (Train.Version value; 0 = none yet). The aggregator only
	// sends a delta whose DeltaBase matches dlVer after seeing this
	// worker's update for that broadcast, so a mismatch here is a protocol
	// violation, not a recoverable race.
	dlVer := 0
	var dlBase []float64
	for {
		env, err := c.recv(cfg.RPCTimeout)
		if err != nil {
			var ne net.Error
			if cfg.RPCTimeout > 0 && errors.As(err, &ne) && ne.Timeout() {
				return progressed, fmt.Errorf("flnet: worker %d: no aggregator message within the %v RPC timeout: %w", cfg.ClientID, cfg.RPCTimeout, err)
			}
			return progressed, fmt.Errorf("flnet: worker %d: %w", cfg.ClientID, err)
		}
		progressed = true
		switch env.Type {
		case MsgProfile:
			start := time.Now()
			if _, _, err := cfg.Train(-1, env.Profile.Weights); err != nil {
				return progressed, fatalf("flnet: worker %d profile: %w", cfg.ClientID, err)
			}
			reply := &ProfileReply{ClientID: cfg.ClientID, Seconds: time.Since(start).Seconds()}
			if err := c.send(&Envelope{Type: MsgProfileReply, ProfileReply: reply}); err != nil {
				return progressed, err
			}
		case MsgTrain:
			start := time.Now()
			var err error
			if env.Train.Delta != nil {
				if dlBase == nil || env.Train.DeltaBase != dlVer {
					return progressed, fatalf("flnet: worker %d round %d: delta against base %d, holding %d", cfg.ClientID, env.Train.Round, env.Train.DeltaBase, dlVer)
				}
				tw, err = compress.ApplyDelta(env.Train.DeltaCodec, env.Train.Delta, dlBase)
			} else {
				tw, err = env.Train.roundWeights(tw)
			}
			env.release()
			if err != nil {
				return progressed, fatalf("flnet: worker %d round %d: %w", cfg.ClientID, env.Train.Round, err)
			}
			if env.Train.Version != 0 {
				// A versioned broadcast — dense or reconstructed — becomes
				// the base the aggregator may delta against next round.
				dlVer = env.Train.Version
				dlBase = append(dlBase[:0], tw...)
			}
			w, n, err := cfg.Train(env.Train.Round, tw)
			if err != nil {
				return progressed, fatalf("flnet: worker %d round %d: %w", cfg.ClientID, env.Train.Round, err)
			}
			secs := time.Since(start).Seconds()
			if cfg.ReportSeconds != nil {
				secs = cfg.ReportSeconds(env.Train.Round)
			}
			if codec != nil && len(env.Train.Participants) == 0 && codec.ID() != compress.IDNone {
				if len(w) != len(tw) {
					return progressed, fatalf("flnet: worker %d round %d: trained %d weights from %d", cfg.ClientID, env.Train.Round, len(w), len(tw))
				}
				if cap(delta) < len(w) {
					delta = make([]float64, len(w))
				}
				delta = delta[:len(w)]
				for i := range delta {
					delta[i] = w[i] - tw[i]
				}
				var payload []byte
				payload, residual = compress.EncodeFeedback(codec, delta, residual, nil)
				up := &CompressedUpdate{
					Round: env.Train.Round, ClientID: cfg.ClientID,
					Codec: codec.ID(), Payload: payload, NumSamples: n,
					Seconds: secs, Seq: env.Train.Seq,
				}
				if err := c.send(&Envelope{Type: MsgCompressedUpdate, CompressedUpdate: up}); err != nil {
					return progressed, err
				}
				continue
			}
			upRaw = nn.AppendWeights(upRaw[:0], maskedTrainResult(env.Train, cfg.ClientID, w, n))
			up := &Update{
				Round: env.Train.Round, ClientID: cfg.ClientID, NumSamples: n,
				Seconds: secs, Seq: env.Train.Seq, Raw: upRaw,
			}
			if err := c.send(&Envelope{Type: MsgUpdate, Update: up}); err != nil {
				return progressed, err
			}
		case MsgTierAssign:
			if cfg.OnTierAssign != nil {
				cfg.OnTierAssign(env.TierAssign.Tier, env.TierAssign.NumTiers)
			}
		case MsgTierReassign:
			if env.TierReassign.Renegotiate {
				// The new tier runs a different compression policy: switch
				// codecs and drop the error-feedback residual — it was
				// accumulated under the old codec's loss profile and must
				// not leak into the new stream.
				next, err := compress.Parse(env.TierReassign.CodecSpec)
				if err != nil {
					return progressed, fatalf("flnet: worker %d: renegotiated codec %q: %w", cfg.ClientID, env.TierReassign.CodecSpec, err)
				}
				codec = next
				residual = nil
				if cfg.OnCodecRenegotiate != nil {
					cfg.OnCodecRenegotiate(next.Name())
				}
			}
			if cfg.OnTierReassign != nil {
				cfg.OnTierReassign(env.TierReassign.From, env.TierReassign.To, env.TierReassign.NumTiers)
			}
		case MsgDone:
			return progressed, nil
		default:
			return progressed, fatalf("flnet: worker %d: unexpected message type %d", cfg.ClientID, env.Type)
		}
	}
}
