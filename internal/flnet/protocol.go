// Package flnet is the distributed runtime of the reproduction: a real
// TCP implementation of the Google-style FL architecture the paper
// prototypes (Section 5.1) — an aggregator server, client workers, optional
// child aggregators for hierarchical aggregation, network profiling for
// tiering, per-round timeouts, and the 130% over-selection straggler
// mitigation the paper discusses (Section 2).
//
// Two training protocols run over the same worker connections:
//
//   - Aggregator drives synchronous FedAvg rounds (Algorithm 1), with
//     tier-based selection plugged in via TierSelectFunc.
//   - TieredAsyncAggregator is the socket port of the FedAT-style
//     tiered-asynchronous engine (flcore.TieredAsyncEngine): one goroutine
//     per tier drives synchronous mini-FedAvg rounds over that tier's live
//     workers, and committed tier rounds funnel through a channel into a
//     single global-model goroutine applying staleness-discounted,
//     slower-tier-favoring mixing (core.FedATWeights).
//
// Messages are gob-encoded over TCP. The aggregator owns the global model
// as a flat weight vector; workers run caller-supplied TrainFuncs, so the
// same nn/flcore training code runs in-process or across machines.
package flnet

import (
	"encoding/gob"
	"fmt"
	"net"
	"sync"
	"time"

	"repro/internal/flcore"
	"repro/internal/nn"
)

// MsgType discriminates protocol messages.
type MsgType uint8

// Protocol message types.
const (
	MsgRegister MsgType = iota + 1
	MsgProfile
	MsgProfileReply
	MsgTrain
	MsgUpdate
	MsgPartial
	MsgDone
	MsgTierAssign
	MsgTierCommit
	MsgCompressedUpdate
	MsgTierReassign
	MsgTreePull
)

// Registration roles (Register.Role). Nodes predating the field gob-decode
// to RoleWorker, so old workers keep registering unchanged.
const (
	// RoleWorker is a leaf training worker (the default).
	RoleWorker byte = 0
	// RoleChildAggregator is a per-tier child aggregator joining a tree
	// root: it registers with ClientID = its tier index and Members = the
	// leaf worker IDs it aggregates, then speaks the TreePull/TierCommit
	// cycle instead of Train/Update.
	RoleChildAggregator byte = 1
)

// Worker protocol levels announced in Register.Proto. Workers predating a
// level gob-decode to 0 and are treated as the oldest protocol. Levels are
// cumulative: a worker announcing level L understands every feature of the
// levels below it.
const (
	// ProtoTierReassign marks a worker that understands MsgTierReassign.
	// The tiered-async aggregator pins older workers in their original
	// tier (they are never migrated), so they keep interoperating with a
	// re-tiering run untouched.
	ProtoTierReassign byte = 1
	// ProtoFastWire marks a worker that understands the bulk weight
	// encoding (Train.Raw/Update.Raw): weight vectors travel as one
	// length-prefixed little-endian byte blob (nn.EncodeWeights) inside the
	// gob envelope, so the multi-MB broadcast/update path is a single
	// memcopy-style encode instead of per-element reflection. Aggregators
	// send Raw only to workers that announced this level; a worker replies
	// in whichever encoding the request arrived in, so either side may be
	// old without breaking the other.
	ProtoFastWire byte = 2
	// ProtoCodecRenegotiate marks a worker that honors the codec fields of
	// MsgTierReassign: when a migration lands it in a tier with a different
	// compression policy, the aggregator piggybacks the new codec spec on
	// the reassignment and the worker switches (resetting its
	// error-feedback residual). Older workers keep their handshake codec
	// for the whole run; the aggregator never renegotiates with them.
	ProtoCodecRenegotiate byte = 3
	// ProtoDeltaDownlink marks a worker that understands the version-acked
	// delta broadcast (Train.Version/Delta/DeltaBase/DeltaCodec): it tracks
	// the last versioned snapshot it received, reconstructs delta payloads
	// against it via compress.ApplyDelta, and adopts versioned dense
	// snapshots as the new base. The aggregator only sends deltas to
	// workers at this level whose last acked version matches the tier
	// chain's base; everyone else — and every worker below this level —
	// receives the dense snapshot exactly as before, so the feature is
	// invisible to old nodes.
	ProtoDeltaDownlink byte = 4
)

// Envelope is the single on-wire message shape; exactly one payload field
// is set according to Type.
type Envelope struct {
	Type             MsgType
	Register         *Register
	Profile          *Profile
	ProfileReply     *ProfileReply
	Train            *Train
	Update           *Update
	Partial          *Partial
	Done             *Done
	TierAssign       *TierAssign
	TierCommit       *TierCommit
	CompressedUpdate *CompressedUpdate
	TierReassign     *TierReassign
	TreePull         *TreePull
}

// Register announces a worker to its aggregator. Codec is the update
// compression the worker will speak (compress.ID* constants) — this is the
// whole negotiation: a worker that predates compression gob-decodes to the
// zero value, which is the dense codec, so old nodes keep working; the
// aggregator rejects IDs it cannot decode at the handshake, before any
// round can fail on an undecodable payload.
type Register struct {
	ClientID   int
	NumSamples int
	Codec      byte
	// Proto is the worker's protocol level (Proto* constants). Workers
	// from before the field gob-decode to 0; the aggregator then withholds
	// newer envelope types from them (today: MsgTierReassign) instead of
	// sending messages they would reject.
	Proto byte
	// Role distinguishes leaf workers from child aggregators (Role*
	// constants); nodes predating the field decode to RoleWorker.
	Role byte
	// Members lists the leaf worker IDs a child aggregator fans in over
	// (RoleChildAggregator only). The tree root checkpoints and validates
	// tier membership from these, so a resumed tree can detect roster
	// changes without ever seeing the leaves' connections.
	Members []int
	// Addr is the node's own listen address (informational; child
	// aggregators report theirs so the root's metrics can name them).
	Addr string
}

// Profile asks a worker to run one profiling task (Section 4.2's
// lightweight profiler, over the network).
type Profile struct {
	Weights []float64
}

// ProfileReply reports the measured local training duration.
type ProfileReply struct {
	ClientID int
	Seconds  float64
}

// Train delivers the round's global weights to a selected worker. When
// Participants is non-empty the round runs under secure aggregation: the
// worker masks its sample-weighted update with pairwise masks over the
// cohort (see secure.go) scaled by MaskScale.
//
// Seq is a per-request token the worker echoes back in its update. Live
// re-tiering makes it necessary: while a migration is in flight a worker
// can be trained by its old tier's in-flight round and its new tier's next
// round concurrently, and the two tiers' local round counters can collide
// — matching replies by round number alone would let one tier aggregate an
// update trained against the other tier's weights. 0 (synchronous rounds,
// legacy aggregators) preserves the round-matched flow.
type Train struct {
	Round        int
	Weights      []float64
	Participants []int
	MaskScale    float64
	Seq          int64
	// Raw is the fast-wire weight payload (nn.EncodeWeights bulk bytes),
	// set instead of Weights for workers that registered with
	// Proto ≥ ProtoFastWire. Exactly one of Weights/Raw is non-nil.
	Raw []byte
	// Version identifies the broadcast snapshot under the delta-downlink
	// scheme: the sending tier's 1-based versioned-broadcast counter (so
	// 0, the value old aggregators gob-decode to, means "no version — do
	// not track a base"). A per-tier per-broadcast counter rather than the
	// global model version, because a tier racing its own commit's
	// application can pull the same global version twice and every
	// (tier, Version) pair must name exactly one base. Only set for
	// workers that registered with Proto ≥ ProtoDeltaDownlink on runs
	// with a downlink mode configured.
	Version int
	// Delta, when non-nil, replaces Weights/Raw: the compress delta
	// payload to apply against the worker's held base. DeltaBase names
	// that base (its Version value), and DeltaCodec is the compress delta
	// codec ID (compress.IDDeltaXOR for the lossless XOR delta, the lossy
	// codec's ID otherwise).
	Delta      []byte
	DeltaBase  int
	DeltaCodec byte
}

// broadcast is one round's weight vector prepared for sending to a mixed
// population: the fast-wire blob is encoded at most once per round, no
// matter how many workers receive it (the blob and the weights slice are
// shared read-only across the per-worker Train envelopes).
type broadcast struct {
	weights []float64
	raw     []byte // lazily encoded on the first fast-wire recipient
}

func newBroadcast(weights []float64) *broadcast { return &broadcast{weights: weights} }

// fill sets t's weight payload in the encoding negotiated at registration:
// bulk bytes for ProtoFastWire peers, the legacy per-element gob field
// otherwise. It returns t for call chaining.
func (b *broadcast) fill(t *Train, proto byte) *Train {
	if proto >= ProtoFastWire {
		if b.raw == nil {
			b.raw = nn.EncodeWeights(b.weights)
		}
		t.Raw = b.raw
	} else {
		t.Weights = b.weights
	}
	return t
}

// roundWeights decodes the request's weight vector from whichever encoding
// it arrived in.
func (t *Train) roundWeights() ([]float64, error) {
	if t.Raw != nil {
		return nn.DecodeWeights(t.Raw)
	}
	return t.Weights, nil
}

// Update returns a worker's locally trained weights. Seconds is the
// worker-measured duration of the local pass (0 from workers predating the
// field); it feeds the live tiering Manager's EWMA latency estimates —
// client-side measurement excludes aggregator-side queueing, matching what
// Section 4.2's profiler observes.
type Update struct {
	Round      int
	ClientID   int
	Weights    []float64
	NumSamples int
	Seconds    float64
	// Seq echoes Train.Seq (0 from workers predating the field).
	Seq int64
	// Raw is the fast-wire weight payload (nn.EncodeWeights bulk bytes).
	// A worker sets it instead of Weights when the Train request itself
	// arrived fast-wire, so replies always match what the aggregator can
	// decode. Exactly one of Weights/Raw is non-nil.
	Raw []byte
}

// Partial is a child aggregator's pre-aggregated contribution: the weighted
// sum of its workers' updates plus the total weight, so the master can
// combine children without seeing individual updates.
type Partial struct {
	Round       int
	WeightedSum []float64
	TotalWeight float64
	Clients     int
}

// Done tells a worker training is finished.
type Done struct {
	Rounds int
}

// TierAssign tells a worker which latency tier it was placed in after
// server-side profiling and tiering (tier 0 is fastest, per
// core.BuildTiers). Workers need no tier knowledge to train — their tier's
// aggregator loop drives them — but the assignment lets them log placement
// and lets future work adapt locally (e.g. update compression for slow
// tiers).
type TierAssign struct {
	Tier     int
	NumTiers int
	// The remaining fields configure a child aggregator joining a tree
	// root (zero for plain workers, which ignore them): Seed and
	// ClientsPerRound key the child's flcore.TierCohort draws so the tree
	// selects exactly the cohorts a flat run would, and StartRound is the
	// tier's first local round index (non-zero when resuming from a
	// checkpoint).
	Seed            int64
	ClientsPerRound int
	StartRound      int
}

// TreePull is the tree root's counterpart of a tier loop's snapshot pull:
// the current global version and weights, sent to a child aggregator after
// its registration and again after each of its commits is applied — the
// same dispatch-at-commit discipline the flat tier loops follow (both are
// flcore.Committer.Pull answers), so a tree run can be byte-compared
// against a flat one. Exactly one of
// Weights/Raw is set, negotiated by the child's Register.Proto like any
// broadcast.
type TreePull struct {
	Version int
	Weights []float64
	Raw     []byte
	// Delta, when non-nil, replaces Weights/Raw: the compress delta
	// payload against the child's previously applied pull. DeltaBase is
	// that pull's Version, DeltaCodec the compress delta codec ID. The
	// root may send deltas because the pull→commit cycle is strictly
	// sequential per child — a pull is only followed by another after the
	// child's commit for it was applied, so the received commit is the
	// implicit ack that the child holds the previous pull's base.
	Delta      []byte
	DeltaBase  int
	DeltaCodec byte
}

// pullWeights decodes the pull's weight vector from whichever encoding it
// arrived in.
func (p *TreePull) pullWeights() ([]float64, error) {
	if p.Raw != nil {
		return nn.DecodeWeights(p.Raw)
	}
	return p.Weights, nil
}

// TierCommit is one tier's finished mini-FedAvg round on its way to the
// global model: the tier-level aggregate, the tier's local round counter,
// and the global version the round was trained from (PulledVersion), from
// which the committer derives staleness. Inside TieredAsyncAggregator these
// envelopes flow over the in-process commit channel; the wire encoding
// exists so a tier loop can run as a separate child-aggregator process
// (tree.go) without a protocol change.
type TierCommit struct {
	Tier          int
	TierRound     int
	PulledVersion int
	Weights       []float64
	Clients       int
	Seconds       float64 // wall-clock duration of the tier round
	// UplinkBytes is the tier round's worker→aggregator update traffic as
	// encoded on the wire (compressed payloads where negotiated).
	UplinkBytes int64
	// DownlinkBytes is the tier round's aggregator→worker broadcast
	// traffic as encoded on the wire (delta payloads where the ack state
	// allowed them, dense snapshots otherwise).
	DownlinkBytes int64
	// Observed carries each contributing client's observed response
	// latency, feeding the live tiering Manager's EWMA estimates at the
	// committer (worker-reported seconds where available, the tier round's
	// wall clock otherwise).
	Observed []ClientSeconds
}

// ClientSeconds is one client's observed round cost as it travels inside
// a TierCommit: the Committer's flcore.Observation, field for field (gob
// matches struct fields by name, so the alias changes nothing on the wire).
type ClientSeconds = flcore.Observation

// TierReassign tells a worker it migrated between latency tiers at a live
// re-tiering point (tier 0 is fastest, per core.BuildTiers). Like
// MsgTierAssign it is informational — tier loops are server-driven, so the
// migration is effective regardless — but it lets workers log placement
// and adapt locally. It is only sent to workers that registered with
// Proto ≥ ProtoTierReassign; older workers are pinned to their original
// tier instead, so they never need to understand it.
type TierReassign struct {
	From     int
	To       int
	NumTiers int
	// Renegotiate, when true, carries a codec change for the worker's new
	// tier: the worker must switch its uplink compression to CodecSpec
	// (compress.Parse syntax) from its next training round on, dropping
	// its error-feedback residual — the old tier's residual was
	// accumulated under a different loss profile and must not leak into
	// the new codec's stream. Only sent to workers that registered with
	// Proto ≥ ProtoCodecRenegotiate; the aggregator accepts updates under
	// both the old and new codec during the switch window, because a
	// round dispatched before the migration can still deliver afterwards.
	Renegotiate bool
	CodecSpec   string
}

// CompressedUpdate is the compressed counterpart of Update: instead of a
// dense weight vector, it carries the codec-encoded weight *delta* against
// the round's broadcast weights (error-feedback residual kept
// worker-side), plus the codec ID so the aggregator decodes with the right
// scheme. The aggregator reconstructs weights = broadcast + decode(Payload).
type CompressedUpdate struct {
	Round      int
	ClientID   int
	Codec      byte
	Payload    []byte
	NumSamples int
	// Seconds mirrors Update.Seconds: the worker-measured duration of the
	// local pass, feeding live tiering's latency estimates.
	Seconds float64
	// Seq echoes Train.Seq (0 from workers predating the field).
	Seq int64
}

// conn wraps a net.Conn with gob codecs and deadline helpers. Sends are
// serialized: live re-tiering makes the committer goroutine send
// MsgTierReassign on connections whose tier loops send MsgTrain
// concurrently, and a gob encoder is not safe for concurrent use.
type conn struct {
	raw    net.Conn
	sendMu sync.Mutex
	enc    *gob.Encoder
	dec    *gob.Decoder
	// writeTimeout bounds each send with a write deadline (0 = block
	// forever, the historical behaviour). Set once before the conn is
	// shared across goroutines.
	writeTimeout time.Duration
}

func newConn(raw net.Conn) *conn {
	return &conn{raw: raw, enc: gob.NewEncoder(raw), dec: gob.NewDecoder(raw)}
}

func (c *conn) send(env *Envelope) error {
	c.sendMu.Lock()
	defer c.sendMu.Unlock()
	if c.writeTimeout > 0 {
		if err := c.raw.SetWriteDeadline(time.Now().Add(c.writeTimeout)); err != nil {
			return fmt.Errorf("flnet: send %d: deadline: %w", env.Type, err)
		}
		defer c.raw.SetWriteDeadline(time.Time{}) //nolint:errcheck // best-effort reset
	}
	if err := c.enc.Encode(env); err != nil {
		return fmt.Errorf("flnet: send %d: %w", env.Type, err)
	}
	return nil
}

// recv decodes the next message; a zero timeout blocks indefinitely.
func (c *conn) recv(timeout time.Duration) (*Envelope, error) {
	if timeout > 0 {
		if err := c.raw.SetReadDeadline(time.Now().Add(timeout)); err != nil {
			return nil, fmt.Errorf("flnet: deadline: %w", err)
		}
		defer c.raw.SetReadDeadline(time.Time{}) //nolint:errcheck // best-effort reset
	}
	var env Envelope
	if err := c.dec.Decode(&env); err != nil {
		return nil, fmt.Errorf("flnet: recv: %w", err)
	}
	return &env, nil
}

func (c *conn) close() error { return c.raw.Close() }
