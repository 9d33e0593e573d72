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
// Messages are gob-encoded Envelopes over TCP, in exactly one dialect: a
// registration announces wireVersion and the aggregator refuses any other
// number, so every connection that survives the handshake speaks every
// message below. A weight vector crosses the socket in one encoding, the
// nn.EncodeWeights little-endian blob (Raw fields), or as a compress delta
// against a base the receiver holds (Delta fields). The aggregator owns the
// global model as a flat weight vector; workers run caller-supplied
// TrainFuncs, so the same nn/flcore training code runs in-process or across
// machines.
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
	MsgDone
	MsgTierAssign
	MsgTierCommit
	MsgCompressedUpdate
	MsgTierReassign
	MsgTreePull
)

// wireVersion is the protocol version this build speaks, announced in
// Register.Version and compared for equality at the handshake. Nodes of a
// tree or fleet are built and deployed as a unit: a peer announcing any
// other number — including a build from before the field, which gob-decodes
// to 0 — is refused with a reason (Done.Reason), and mixed-version fleets
// are a non-goal. Bump it whenever a message changes meaning.
const wireVersion = 1

// Registration roles (Register.Role).
const (
	// RoleWorker is a leaf training worker (the default).
	RoleWorker byte = 0
	// RoleChildAggregator is a per-tier child aggregator joining a tree
	// root: it registers with ClientID = its tier index and Members = the
	// leaf worker IDs it aggregates, then speaks the TreePull/TierCommit
	// cycle instead of Train/Update.
	RoleChildAggregator byte = 1
)

// Envelope is the single on-wire message shape; exactly one payload field
// is set according to Type (conn.recv refuses anything else).
type Envelope struct {
	Type             MsgType
	Register         *Register
	Profile          *Profile
	ProfileReply     *ProfileReply
	Train            *Train
	Update           *Update
	Done             *Done
	TierAssign       *TierAssign
	TierCommit       *TierCommit
	CompressedUpdate *CompressedUpdate
	TierReassign     *TierReassign
	TreePull         *TreePull
}

// hasPayload reports whether the payload pointer matching e.Type is set.
// An unknown Type has none.
func (e *Envelope) hasPayload() bool {
	set := [...]bool{
		MsgRegister: e.Register != nil, MsgProfile: e.Profile != nil, MsgProfileReply: e.ProfileReply != nil,
		MsgTrain: e.Train != nil, MsgUpdate: e.Update != nil, MsgDone: e.Done != nil,
		MsgTierAssign: e.TierAssign != nil, MsgTierCommit: e.TierCommit != nil,
		MsgCompressedUpdate: e.CompressedUpdate != nil, MsgTierReassign: e.TierReassign != nil,
		MsgTreePull: e.TreePull != nil,
	}
	return int(e.Type) < len(set) && set[e.Type]
}

// Register announces a node to its aggregator. The aggregator checks
// Version and Codec at the handshake and answers a registration it cannot
// serve with a Done carrying the reason, before any round can fail on an
// undecodable payload.
type Register struct {
	ClientID   int
	NumSamples int
	// Codec is the update compression the worker will speak (compress.ID*
	// constants; the zero value is the dense codec).
	Codec byte
	// Version is the sender's wireVersion.
	Version int
	// Role distinguishes leaf workers from child aggregators (Role*
	// constants).
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
// update trained against the other tier's weights. Every tiered-async
// request carries a non-zero Seq; the synchronous Aggregator, which has one
// round in flight at a time, sends 0 and matches replies by Round.
type Train struct {
	Round        int
	Participants []int
	MaskScale    float64
	Seq          int64
	// Raw is the dense snapshot, one nn.EncodeWeights blob encoded once per
	// round and shared by every recipient. Exactly one of Raw/Delta is set.
	Raw []byte
	// Version identifies the broadcast snapshot under the delta-downlink
	// scheme: the sending tier's 1-based versioned-broadcast counter (0 on
	// runs without a downlink mode means "do not track a base"). A per-tier
	// per-broadcast counter rather than the global model version, because a
	// round that ends without a commit is redrawn from the same global
	// version and every (tier, Version) pair must name exactly one base.
	Version int
	// Delta, when non-nil, replaces Raw: the compress delta payload to
	// apply against the worker's held base. DeltaBase names that base (its
	// Version value), and DeltaCodec is the compress delta codec ID
	// (compress.IDDeltaXOR for the lossless XOR delta, the lossy codec's ID
	// otherwise).
	Delta      []byte
	DeltaBase  int
	DeltaCodec byte
}

// broadcast is one round's dense snapshot on its way to a cohort: the blob
// is encoded at most once per round, however many members receive it (and
// not at all on a round every member takes as a delta), and shared
// read-only across the per-worker Train envelopes.
type broadcast struct {
	weights []float64
	once    sync.Once // redispatches ask from concurrent collector goroutines
	blob    []byte
}

func newBroadcast(weights []float64) *broadcast { return &broadcast{weights: weights} }

// raw returns the round's nn.EncodeWeights blob, encoding it on first use.
func (b *broadcast) raw() []byte {
	b.once.Do(func() { b.blob = nn.EncodeWeights(b.weights) })
	return b.blob
}

// roundWeights decodes the request's dense snapshot; a request that
// carries none is an error, never a nil vector.
func (t *Train) roundWeights() ([]float64, error) { return nn.DecodeWeights(t.Raw) }

// Update returns a worker's locally trained weights. Seconds is the
// worker-measured duration of the local pass; it feeds the live tiering
// Manager's EWMA latency estimates — client-side measurement excludes
// aggregator-side queueing, matching what Section 4.2's profiler observes.
type Update struct {
	Round      int
	ClientID   int
	NumSamples int
	Seconds    float64
	// Seq echoes Train.Seq.
	Seq int64
	// Raw is the trained weight vector as an nn.EncodeWeights blob.
	Raw []byte
}

// Done ends a peer's session: training is finished or, with a Reason, the
// aggregator refuses the registration for a cause no redial can cure (wire
// version, unknown codec) — which conn.recv hands the peer as a fatal
// error, never as a message.
type Done struct {
	Rounds int
	Reason string
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
// against a flat one. Exactly one of Raw/Delta is set.
type TreePull struct {
	Version int
	// Raw is the dense model as an nn.EncodeWeights blob.
	Raw []byte
	// Delta, when non-nil, replaces Raw: the compress delta payload against
	// the child's previously applied pull. DeltaBase is that pull's
	// Version, DeltaCodec the compress delta codec ID. The root may send
	// deltas because the pull→commit cycle is strictly sequential per child
	// — a pull is only followed by another after the child's commit for it
	// was applied, so the received commit is the implicit ack that the
	// child holds the previous pull's base.
	Delta      []byte
	DeltaBase  int
	DeltaCodec byte
}

// pullWeights decodes the pull's dense model; a pull that carries none is
// an error.
func (p *TreePull) pullWeights() ([]float64, error) { return nn.DecodeWeights(p.Raw) }

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
// and adapt locally.
type TierReassign struct {
	From     int
	To       int
	NumTiers int
	// Renegotiate, when true, carries a codec change for the worker's new
	// tier: the worker must switch its uplink compression to CodecSpec
	// (compress.Parse syntax) from its next training round on, dropping
	// its error-feedback residual — the old tier's residual was
	// accumulated under a different loss profile and must not leak into
	// the new codec's stream. The aggregator accepts updates under both the
	// old and new codec during the switch window, because a round
	// dispatched before the migration can still deliver afterwards.
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
	// Seq echoes Train.Seq.
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

// recv decodes the next message; a zero timeout blocks indefinitely. This
// is where bytes enter the program, so what every handler relies on is
// settled here: the payload pointer matching Type is set, and a reasoned
// refusal is an error. Neither failure is one a redial cures.
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
	if !env.hasPayload() {
		return nil, fatalf("flnet: recv: message type %d without its payload", env.Type)
	}
	if env.Type == MsgDone && env.Done.Reason != "" {
		return nil, fatalf("flnet: refused by the aggregator: %s", env.Done.Reason)
	}
	return &env, nil
}

func (c *conn) close() error { return c.raw.Close() }
