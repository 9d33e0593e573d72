// Package flnet is the distributed runtime of the reproduction: a real
// TCP implementation of the Google-style FL architecture the paper
// prototypes (Section 5.1) — an aggregator server, client workers, optional
// child aggregators for hierarchical aggregation, network profiling for
// tiering, per-round timeouts, and the 130% over-selection straggler
// mitigation the paper discusses (Section 2).
//
// Two training protocols run over the same worker connections, through one
// round (flcore.RunTierRound over fanIn.exchange) and one flcore.Committer:
//
//   - Aggregator drives synchronous FedAvg rounds (Algorithm 1) over the
//     cohorts a flcore.Selector picks — the simulator's selector type and
//     per-round seed, worker IDs as client indices — so tier-based
//     selection is a core.StaticSelector over network-profiled tiers.
//   - TieredAsyncAggregator is the socket port of the FedAT-style
//     tiered-asynchronous engine (flcore.TieredAsyncEngine): one goroutine
//     per tier drives synchronous mini-FedAvg rounds over that tier's live
//     workers, and committed tier rounds funnel through a channel into a
//     single global-model goroutine applying staleness-discounted,
//     slower-tier-favoring mixing (core.FedATWeights).
//
// Every message is one length-prefixed frame (layout table at frameHeaderLen):
// a 16-byte header — magic, wireVersion, message type, flags, two lengths —
// then the control part, a gob-encoded Envelope, then at most one blob, the
// message's bulk field carried as raw bytes. Both lengths are checked
// against a bound before anything is allocated for them. A weight vector
// crosses the socket in one encoding, the nn.EncodeWeights little-endian
// blob (Raw and Weights fields), or as a compress delta against a base the
// receiver holds (Delta fields). A dense blob is neither encoded nor decoded
// on a little-endian host: it leaves as its header plus the vector's own
// bytes, and arrives into float64 storage that becomes the vector (see
// Envelope). There is one dialect: a frame announcing another wireVersion
// is refused, so every connection that survives the handshake speaks every
// message below. The aggregator owns the global model as a flat weight
// vector; workers run caller-supplied TrainFuncs, so the same nn/flcore
// training code runs in-process or across machines.
package flnet

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"fmt"
	"io"
	"math/bits"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/compress"
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

// wireVersion is the protocol version this build speaks, carried in every
// frame header and compared for equality by conn.recv. Nodes of a tree or
// fleet are built and deployed as a unit: a frame announcing any other
// number is refused with an error naming both, the handshake answers it once
// with a Done carrying that reason, and mixed-version fleets are a non-goal.
// Bump it whenever a message or the frame changes meaning.
const wireVersion = 5

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
//
// Blob ownership: the bulk byte field of a received Train, Update,
// CompressedUpdate or TreePull (Raw, Delta, Payload) points into a recycled
// receive buffer. It is valid until the receiver calls release, or takes
// the buffer over with take and hands it back with putBlob, and must not be
// read or retained afterwards. A dense Raw decodes to a view of that buffer
// (nn.ViewWeights), so whoever keeps the view keeps the buffer: the fan-in
// until recycle, the worker until its update is sent or, for a versioned
// Train, as its tier's base until the next dense one. A received
// Profile's or TierCommit's Weights is the buffer itself, never recycled:
// the vector owns it. An envelope that is dropped undecoded needs no
// release; the buffer is then simply collected. A sender's bulk field is
// only read, and only until send returns.
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

	blob *[]byte // the recycled buffer behind the bulk field; nil once released or when built by hand
}

// release hands the receive buffer behind the bulk field back for reuse. The
// field itself is left as it is: it dangles, it is not cleared.
func (e *Envelope) release() {
	putBlob(e.take())
}

// take hands the receive buffer behind the bulk field to the caller, who
// recycles it with putBlob once nothing reads the field any more; the
// envelope's release is then a no-op.
func (e *Envelope) take() *[]byte {
	b := e.blob
	e.blob = nil
	return b
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

// Register announces a node to its aggregator. The aggregator checks Codec
// at the handshake (the frame header already carried the wire version) and
// answers a registration it cannot serve with a Done carrying the reason,
// before any round can fail on an undecodable payload.
type Register struct {
	ClientID   int
	NumSamples int
	// Codec is the update compression the worker will speak (compress.ID*
	// constants; the zero value is the dense codec).
	Codec byte
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
// lightweight profiler, over the network). Weights travels as the frame's
// blob in the nn.EncodeWeights form, written from the sender's vector; the
// receiver's Weights is the receive buffer, which it owns.
type Profile struct {
	Weights []float64
}

// ProfileReply reports the measured local training duration.
type ProfileReply struct {
	ClientID int
	Seconds  float64
}

// Train delivers the round's global weights to a selected worker: dense
// (Raw), or on a downlink run as a catch-up (Delta) — the tier chain's
// payloads since the base the worker's last ack names, which a worker that
// sat out rounds receives in one message while they total less than the
// dense model.
//
// Seq is a per-request token, never zero, that the worker echoes back in
// its update: a reply is matched to the request waiting for it by Seq
// alone, and one that echoes no live token is dropped. Round numbers cannot
// do that: a straggler discarded from one round answers during a later one,
// and while a live re-tiering migration is in flight a worker can be
// trained by its old tier's in-flight round and its new tier's next round
// concurrently, with colliding local round counters.
type Train struct {
	Round int
	Seq   int64
	// Raw is the dense snapshot as an nn.EncodeWeights blob. A round sets
	// weights, its base, instead, and split writes the blob from that
	// vector for every dense recipient. Exactly one of Raw/weights and Delta
	// is set; whichever it is travels as the frame's blob. The receiver's
	// Raw lives in the receive buffer: the worker views it as its round
	// weights (roundWeights) and keeps the buffer as Envelope describes.
	Raw     []byte
	weights []float64
	// Version is the sending tier's chain state (compress.Chain.Version,
	// from 1; 0 without a downlink mode: track no base) — per broadcast, not
	// the global version, which a redrawn round repeats — so every (Tier,
	// Version) names one base. The worker keeps one base per Tier: a
	// migrating worker may be sent its old tier's request after its new
	// tier's.
	Tier    int
	Version int
	// Delta, when non-nil, replaces Raw: a catch-up, the compress delta
	// payloads that take the worker's base for Tier to Version, oldest
	// first (compress.ApplyCatchUp; one payload when the worker missed no
	// round). DeltaBase names that base (its Version value), and DeltaCodec
	// is the compress delta codec ID (compress.IDDeltaXOR for the lossless
	// XOR delta, the lossy codec's ID otherwise). The payloads travel back
	// to back as the frame's blob, written from the sender's slices, and
	// DeltaLens carries their lengths in the control part; send fills it and
	// recv consumes it, so neither side sets or reads it.
	Delta      [][]byte
	DeltaLens  []int
	DeltaBase  int
	DeltaCodec byte
}

// roundWeights is the request's dense snapshot, viewed in place in Raw's
// buffer (nn.ViewWeights); a request that carries none is an error, never
// a nil vector.
func (t *Train) roundWeights() ([]float64, error) { return nn.ViewWeights(t.Raw) }

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
	// Raw is the trained weight vector as an nn.EncodeWeights blob, the
	// frame's blob. The worker sets weights instead, and split writes the
	// blob from that vector. The aggregator's decodeUpdate views Raw in
	// place and keeps its buffer, as the update's Weights, until recycle.
	Raw     []byte
	weights []float64
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
	// Raw is the dense model as an nn.EncodeWeights blob; the root sets
	// weights instead, and split writes the blob from that vector. Raw or
	// Delta, whichever is set, is the frame's blob: the child's until it
	// releases the envelope, which it does once the pull is decoded.
	Raw     []byte
	weights []float64
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

// pullWeights decodes the pull's dense model into dst's storage; a pull
// that carries none is an error.
func (p *TreePull) pullWeights(dst []float64) ([]float64, error) {
	w, _, err := nn.DecodeWeightsInto(dst, p.Raw)
	return w, err
}

// applyTo decodes the pull into base, the pull the child holds (version
// held; nil before the first), in place: a dense pull replaces it, a delta
// pull must be against it and updates it. It returns the new pull, in
// base's storage once base is sized.
func (p *TreePull) applyTo(base []float64, held int) ([]float64, error) {
	if p.Delta == nil {
		return p.pullWeights(base)
	}
	if base == nil || p.DeltaBase != held {
		return nil, fmt.Errorf("pull delta against version %d, holding %d", p.DeltaBase, held)
	}
	return compress.ApplyCatchUp(base, p.DeltaCodec, [][]byte{p.Delta}, base)
}

// TierCommit is one tier's finished round on its way to the global model:
// the flcore.Commit flcore.RunTierRound produced, plus how many clients it
// aggregated and its wall-clock seconds. A flat root's tier loops hand it
// to the committer in process; a tree child sends it (tree.go). On the
// wire Weights is the frame's blob in the nn.EncodeWeights form, written
// from the child's vector. The root's Weights is the receive buffer, which
// it owns, and finite: recv refuses a commit holding a NaN or ±Inf.
type TierCommit struct {
	flcore.Commit
	Clients int
	Seconds float64
}

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
	Round    int
	ClientID int
	Codec    byte
	// Payload is the frame's blob: the aggregator's until decodeUpdate
	// releases it, or, for an int8 payload, keeps its buffer, as the
	// update's Encoded, until recycle.
	Payload    []byte
	NumSamples int
	// Seconds mirrors Update.Seconds: the worker-measured duration of the
	// local pass, feeding live tiering's latency estimates.
	Seconds float64
	// Seq echoes Train.Seq.
	Seq int64
}

// The frame every message travels in. The header is little-endian:
//
//	offset  size  field
//	0       4     frameMagic
//	4       2     wireVersion
//	6       1     message type (equals the decoded Envelope.Type)
//	7       1     flags: flagBlob = a blob follows, flagDelta = it fills Delta, not Raw
//	8       4     metaLen ≤ maxMetaBytes: the gob-encoded Envelope, bulk field cleared
//	12      4     blobLen ≤ the connection's blob bound: the bulk field's bytes, as they are
//
// The blob is Train.Raw, Update.Raw, CompressedUpdate.Payload or
// TreePull.Raw/Delta verbatim, Train.Delta's payloads back to back (their
// lengths, Train.DeltaLens, ride in the control part), or the
// nn.EncodeWeights form of a vector: Profile.Weights, TierCommit.Weights,
// or the weights a Train, Update or TreePull sender set in place of Raw.
// No other message carries one. Whether a blob is present and which field
// it fills rides in flags, so a zero-length payload arrives non-nil.
// Payload byte accounting (UplinkBytes, DownlinkBytes) counts blob sizes;
// header and meta are not payload.
const (
	frameHeaderLen        = 16
	frameMagic     uint32 = 0x7F1F_F2A3
	flagBlob       byte   = 1 << 0
	flagDelta      byte   = 1 << 1
	// maxMetaBytes caps the control part. The largest legitimate one is a
	// child's Register listing its leaves or a TierCommit's per-client
	// observations, a few bytes per client.
	maxMetaBytes = 1 << 20
	// maxBlobBytes is the blob ceiling where no model length is known: on a
	// worker, on a child's root link, and on an aggregator that has not seen
	// its model yet. An aggregator that holds a model uses blobBound instead.
	maxBlobBytes = 512 << 20
)

// blobBound is the largest blob a peer may send the aggregator of an
// n-weight model: the dense vector, or the largest payload any uplink codec
// encodes it to at its least favourable parameter. (A downlink catch-up is
// never larger than the dense vector: a chain's ring keeps no more.)
func blobBound(n int) int64 {
	return int64(max(compress.DenseBytes(n), compress.NewInt8(1).EncodedBytes(n), compress.NewTopK(1).EncodedBytes(n)))
}

// blobs recycles receive buffers across rounds and connections, one pool
// per power-of-two size class (indexed by the bit length of the capacity)
// so that a compressed payload never pins a buffer sized for the dense
// model. Buffers are allocated at the requested length, with float64
// storage behind them so a dense blob's body can be viewed as the vector; a
// fleet training one model asks for the same few lengths every round.
var blobs [bits.UintSize + 1]sync.Pool

// getBlob returns a recycled buffer of length n with unspecified contents.
func getBlob(n int) *[]byte {
	if b, _ := blobs[bits.Len(uint(n))].Get().(*[]byte); b != nil && cap(*b) >= n {
		*b = (*b)[:n]
		return b
	}
	b := nn.NewWeightsBuffer(n)
	return &b
}

// putBlob recycles a buffer getBlob returned; nil is a no-op.
func putBlob(b *[]byte) {
	if b != nil {
		blobs[bits.Len(uint(cap(*b)))].Put(b)
	}
}

// vectorBlob returns a recycled buffer with an n-weight EncodeWeights
// header and w, an n-weight vector: the buffer's body on a little-endian
// host (nn.ViewWeights), a fresh vector elsewhere. w's contents are
// unspecified; it lives until the buffer goes back to putBlob.
func vectorBlob(n int) (*[]byte, []float64) {
	b := getBlob(compress.DenseBytes(n))
	nn.PutWeightsHeader((*[8]byte)(*b), n)
	w, err := nn.ViewWeights(*b)
	if err != nil {
		panic(err) // the header was just written for this length
	}
	return b, w
}

// encodeBlob is nn.EncodeWeights into a recycled buffer: a vector's blob
// where nn.WeightsBody offers no view of it.
func encodeBlob(w []float64) *[]byte {
	b := getBlob(compress.DenseBytes(len(w)))
	*b = nn.AppendWeights((*b)[:0], w)
	return b
}

// carriesBlob reports whether messages of type t have a bulk field, and
// whether that field comes in a Raw and a Delta flavour.
func carriesBlob(t MsgType) (blob, delta bool) {
	switch t {
	case MsgTrain, MsgTreePull:
		return true, true
	case MsgUpdate, MsgCompressedUpdate, MsgProfile, MsgTierCommit:
		return true, false
	}
	return false, false
}

// conn frames Envelopes over a net.Conn, with deadline helpers. Sends are
// serialized: live re-tiering makes the committer goroutine send
// MsgTierReassign on connections whose tier loops send MsgTrain
// concurrently, and the send state below is per connection. Receives are
// one goroutine's at a time.
type conn struct {
	raw    net.Conn
	sendMu sync.Mutex
	// Send state: head holds the frame header and the gob control part, so a
	// frame leaves in one writev on a bare TCP connection: iov is head, then
	// the blob straight from the caller's slices.
	head bytes.Buffer
	enc  *gob.Encoder // → head
	iov  [][]byte
	vhdr [8]byte // a vector blob's header; its body is the vector itself
	// Receive state: the control part is read into meta and decoded from
	// metaR, which dec reads; both persist so gob's type descriptions cross
	// once per connection.
	rd    *bufio.Reader
	rhdr  [frameHeaderLen]byte
	meta  []byte
	metaR bytes.Reader
	dec   *gob.Decoder // ← metaR
	// limit, when set and positive, is the owning aggregator's blobBound;
	// otherwise maxBlobBytes applies.
	limit *atomic.Int64
	// writeTimeout bounds each send with a write deadline (0 = block
	// forever, the historical behaviour). Set once before the conn is
	// shared across goroutines.
	writeTimeout time.Duration
}

func newConn(raw net.Conn) *conn {
	c := &conn{raw: raw, rd: bufio.NewReaderSize(raw, 4096)}
	c.enc = gob.NewEncoder(&c.head)
	c.dec = gob.NewDecoder(&c.metaR)
	return c
}

// split returns env's control part — a shallow copy with the bulk field
// cleared, so the caller's envelope is never written — and the blob with
// its flags, its non-empty pieces appended to iov (an empty Write can block
// a synchronous transport). A []float64 bulk field goes out as its header,
// written to hdr, then the vector's own bytes (nn.WeightsBody), so the
// vector must hold still until the frame is written. Where there is no view
// it is encoded into a recycled buffer, returned as encoded for the caller
// to recycle once the frame is written. An envelope without its payload
// passes through whole; the receiver refuses it.
func split(env *Envelope, iov [][]byte, hdr *[8]byte) (meta Envelope, blob [][]byte, flags byte, encoded *[]byte) {
	meta = *env
	meta.blob = nil
	blob = iov
	carry := func(b []byte, f byte) {
		if b != nil {
			flags = flagBlob | f
			if len(b) > 0 {
				blob = append(blob, b)
			}
		}
	}
	vec := func(w []float64) {
		if w == nil {
			return
		}
		if body, ok := nn.WeightsBody(w); ok {
			nn.PutWeightsHeader(hdr, len(w))
			carry(hdr[:], 0)
			carry(body, 0)
			return
		}
		encoded = encodeBlob(w)
		carry(*encoded, 0)
	}
	switch {
	case env.Type == MsgTrain && env.Train != nil:
		m := *env.Train
		carry(m.Raw, 0)
		vec(m.weights)
		if m.Delta != nil {
			flags, m.DeltaLens = flagBlob|flagDelta, make([]int, len(m.Delta))
			for i, p := range m.Delta {
				carry(p, flagDelta)
				m.DeltaLens[i] = len(p)
			}
		}
		m.Raw, m.weights, m.Delta, meta.Train = nil, nil, nil, &m
	case env.Type == MsgTreePull && env.TreePull != nil:
		m := *env.TreePull
		carry(m.Raw, 0)
		vec(m.weights)
		carry(m.Delta, flagDelta)
		m.Raw, m.weights, m.Delta, meta.TreePull = nil, nil, nil, &m
	case env.Type == MsgUpdate && env.Update != nil:
		m := *env.Update
		carry(m.Raw, 0)
		vec(m.weights)
		m.Raw, m.weights, meta.Update = nil, nil, &m
	case env.Type == MsgCompressedUpdate && env.CompressedUpdate != nil:
		m := *env.CompressedUpdate
		carry(m.Payload, 0)
		m.Payload, meta.CompressedUpdate = nil, &m
	case env.Type == MsgProfile && env.Profile != nil:
		m := *env.Profile
		vec(m.Weights)
		m.Weights, meta.Profile = nil, &m
	case env.Type == MsgTierCommit && env.TierCommit != nil:
		m := *env.TierCommit
		vec(m.Weights)
		m.Weights, meta.TierCommit = nil, &m
	}
	return meta, blob, flags, encoded
}

// attach puts a received blob where split took it from. The byte fields
// alias the buffer until the handler releases the envelope. The two
// []float64 fields are decoded here, as a view of the buffer, which then
// belongs to the vector and never returns to the pool. A catch-up is cut
// back into its payloads by the lengths the control part carried, once they
// are checked against the blob.
func (e *Envelope) attach(b *[]byte, delta bool) error {
	var vec *[]float64
	switch e.Type {
	case MsgTrain:
		if delta {
			parts, err := compress.SplitCatchUp(*b, e.Train.DeltaLens)
			if err != nil {
				putBlob(b)
				return err
			}
			e.Train.Delta, e.Train.DeltaLens = parts, nil
		} else {
			e.Train.Raw = *b
		}
	case MsgTreePull:
		if delta {
			e.TreePull.Delta = *b
		} else {
			e.TreePull.Raw = *b
		}
	case MsgUpdate:
		e.Update.Raw = *b
	case MsgCompressedUpdate:
		e.CompressedUpdate.Payload = *b
	case MsgProfile:
		vec = &e.Profile.Weights
	case MsgTierCommit:
		vec = &e.TierCommit.Weights
	}
	if vec == nil {
		e.blob = b
		return nil
	}
	w, err := nn.ViewWeights(*b)
	if err != nil {
		putBlob(b)
		return err
	}
	if e.Type == MsgTierCommit && !nn.AllFinite(w) {
		// A non-finite aggregate would poison the global model for good.
		return fmt.Errorf("tier commit weights are not finite")
	}
	*vec = w
	return nil
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
	// iov[0] is the head, filled in once the control part is encoded.
	meta, iov, flags, encoded := split(env, append(c.iov[:0], nil), &c.vhdr)
	c.iov = iov
	defer putBlob(encoded)
	blobLen := int64(0)
	for _, b := range iov[1:] {
		blobLen += int64(len(b))
	}
	var hdr [frameHeaderLen]byte
	c.head.Reset()
	c.head.Write(hdr[:])
	if err := c.enc.Encode(&meta); err != nil {
		return fmt.Errorf("flnet: send %d: %w", env.Type, err)
	}
	metaLen := c.head.Len() - frameHeaderLen
	if metaLen > maxMetaBytes || blobLen > maxBlobBytes {
		return fmt.Errorf("flnet: send %d: frame of %d control and %d blob bytes is over the wire bounds", env.Type, metaLen, blobLen)
	}
	h := c.head.Bytes()
	binary.LittleEndian.PutUint32(h[0:], frameMagic)
	binary.LittleEndian.PutUint16(h[4:], wireVersion)
	h[6], h[7] = byte(env.Type), flags
	binary.LittleEndian.PutUint32(h[8:], uint32(metaLen))
	binary.LittleEndian.PutUint32(h[12:], uint32(blobLen))
	iov[0] = h
	bufs := net.Buffers(iov)
	if _, err := bufs.WriteTo(c.raw); err != nil {
		return fmt.Errorf("flnet: send %d: %w", env.Type, err)
	}
	return nil
}

// wireVersionError is a frame announcing another protocol version: fatal
// for a worker, and the one recv failure the handshake answers.
type wireVersionError struct{ peer uint16 }

func (e *wireVersionError) Error() string {
	return fmt.Sprintf("peer speaks wire version %d, this build speaks %d", e.peer, wireVersion)
}

// recv reads the next frame; a zero timeout blocks indefinitely. This is
// where bytes enter the program, so what every handler relies on is settled
// here: magic, version, a known type and both lengths are checked before
// anything is allocated for the frame, the payload pointer matching Type is
// set, only a message with a bulk field brings a blob, and a reasoned
// refusal is an error. A frame that breaks any of these is a fatal error —
// no redial cures it — while a frame cut short is the transport's failure
// and retryable.
func (c *conn) recv(timeout time.Duration) (*Envelope, error) {
	if timeout > 0 {
		if err := c.raw.SetReadDeadline(time.Now().Add(timeout)); err != nil {
			return nil, fmt.Errorf("flnet: deadline: %w", err)
		}
		defer c.raw.SetReadDeadline(time.Time{}) //nolint:errcheck // best-effort reset
	}
	h := c.rhdr[:]
	if _, err := io.ReadFull(c.rd, h); err != nil {
		return nil, fmt.Errorf("flnet: recv: %w", err)
	}
	if m := binary.LittleEndian.Uint32(h[0:]); m != frameMagic {
		return nil, fatalf("flnet: recv: bad frame magic %#x", m)
	}
	if v := binary.LittleEndian.Uint16(h[4:]); v != wireVersion {
		return nil, &fatalWorkerError{err: &wireVersionError{peer: v}}
	}
	typ, flags := MsgType(h[6]), h[7]
	metaLen, blobLen := binary.LittleEndian.Uint32(h[8:]), binary.LittleEndian.Uint32(h[12:])
	hasBlob, hasDelta := carriesBlob(typ)
	limit := int64(maxBlobBytes)
	if c.limit != nil {
		if v := c.limit.Load(); v > 0 {
			limit = v
		}
	}
	switch {
	case typ < MsgRegister || typ > MsgTreePull:
		return nil, fatalf("flnet: recv: unknown message type %d", typ)
	case flags&^(flagBlob|flagDelta) != 0:
		return nil, fatalf("flnet: recv: message type %d with unknown flags %#x", typ, flags)
	case flags&flagBlob != 0 && !hasBlob, flags&flagDelta != 0 && !(hasDelta && flags&flagBlob != 0), flags&flagBlob == 0 && blobLen != 0:
		return nil, fatalf("flnet: recv: message type %d cannot carry the blob its header announces (flags %#x, %d bytes)", typ, flags, blobLen)
	case metaLen > maxMetaBytes:
		return nil, fatalf("flnet: recv: message type %d announces %d control bytes, over the %d bound", typ, metaLen, maxMetaBytes)
	case int64(blobLen) > limit:
		return nil, fatalf("flnet: recv: message type %d announces a %d-byte blob, over the %d bound", typ, blobLen, limit)
	}
	if cap(c.meta) < int(metaLen) {
		c.meta = make([]byte, metaLen)
	}
	c.meta = c.meta[:metaLen]
	if _, err := io.ReadFull(c.rd, c.meta); err != nil {
		return nil, fmt.Errorf("flnet: recv: %w", err)
	}
	c.metaR.Reset(c.meta)
	var env Envelope
	if err := c.dec.Decode(&env); err != nil {
		return nil, fatalf("flnet: recv: message type %d: %w", typ, err)
	}
	switch {
	case c.metaR.Len() != 0:
		return nil, fatalf("flnet: recv: message type %d: %d stray control bytes", typ, c.metaR.Len())
	case env.Type != typ:
		return nil, fatalf("flnet: recv: frame of type %d holds a message of type %d", typ, env.Type)
	case !env.hasPayload():
		return nil, fatalf("flnet: recv: message type %d without its payload", env.Type)
	case typ == MsgTrain && env.Train.DeltaLens != nil && flags&flagDelta == 0:
		return nil, fatalf("flnet: recv: catch-up lengths on a train frame without a delta")
	}
	if flags&flagBlob != 0 {
		b := getBlob(int(blobLen))
		if _, err := io.ReadFull(c.rd, *b); err != nil {
			putBlob(b)
			return nil, fmt.Errorf("flnet: recv: %w", err)
		}
		if err := env.attach(b, flags&flagDelta != 0); err != nil {
			return nil, fatalf("flnet: recv: message type %d: %w", typ, err)
		}
	}
	if env.Type == MsgDone && env.Done.Reason != "" {
		return nil, fatalf("flnet: refused by the aggregator: %s", env.Done.Reason)
	}
	return &env, nil
}

func (c *conn) close() error { return c.raw.Close() }
