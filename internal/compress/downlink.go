package compress

import (
	"bytes"
	"compress/flate"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"strings"
)

// IDDeltaXOR is the wire discriminator for the lossless downlink delta:
// the XOR of the float64 bit patterns of the new and base vectors,
// DEFLATE-compressed. It deliberately shares the value 0 with IDNone —
// the two never travel in the same field (IDNone rides uplink codec
// negotiation, IDDeltaXOR rides the DeltaCodec byte next to a delta
// payload), and 0 is what a zero-valued gob field decodes to, which makes
// the lossless delta the default interpretation of any delta payload.
const IDDeltaXOR byte = 0

// Downlink describes how the aggregator compresses its broadcast
// (server -> worker) traffic: as the deltas that take the receiver's
// last acknowledged model version to the current one, optionally through a lossy
// codec with server-side error feedback.
//
// A nil *Downlink means dense broadcasts (the pre-delta wire format).
// A Downlink with a nil Codec is the lossless mode: the delta is the XOR
// of the float64 bit patterns, DEFLATE-compressed — reconstruction is
// bit-exact by construction (base XOR (cur XOR base) == cur, no floating
// point arithmetic involved), which is what lets the scripted-order parity
// tests compare delta runs byte-for-byte against dense runs. A non-nil
// Codec quantizes or sparsifies the arithmetic delta cur − base; the
// encoding error stays on the server as a per-tier error-feedback
// residual (see Chain), so lossy broadcasts delay mass rather than drop
// it — the same argument EncodeDelta makes for the uplink.
type Downlink struct {
	// Codec is the lossy delta codec, or nil for the lossless XOR delta.
	Codec Codec
}

// Name returns the downlink spec, e.g. "delta", "delta+int8", or
// "delta+topk@0.10"; ParseDownlink(Name()) reconstructs the value.
func (d *Downlink) Name() string {
	if d == nil {
		return "dense"
	}
	if d.Codec == nil {
		return "delta"
	}
	return "delta+" + d.Codec.Name()
}

// ParseDownlink builds a downlink mode from its spec string: "dense" (or
// "none", or empty) for plain dense broadcasts, "delta" for the lossless
// XOR delta, or "delta+<codec>" (e.g. "delta+int8", "delta+topk@0.1")
// for a lossy delta. It is the -downlink-codec flag syntax of tifl-node.
func ParseDownlink(spec string) (*Downlink, error) {
	switch spec {
	case "", "dense", "none":
		return nil, nil
	case "delta":
		return &Downlink{}, nil
	}
	rest, ok := strings.CutPrefix(spec, "delta+")
	if !ok {
		return nil, fmt.Errorf("compress: unknown downlink spec %q", spec)
	}
	c, err := Parse(rest)
	if err != nil {
		return nil, fmt.Errorf("compress: bad downlink spec %q: %v", spec, err)
	}
	if c.ID() == IDNone {
		// "delta+none" would put IDNone in the DeltaCodec byte, where 0
		// already means the XOR delta; spell it "delta" instead.
		return nil, fmt.Errorf("compress: downlink spec %q: use \"delta\" for the lossless delta", spec)
	}
	return &Downlink{Codec: c}, nil
}

// Chain is one tier's server-side downlink state: the reconstruction base
// every up-to-date receiver in the tier currently holds, the
// error-feedback residual for lossy modes, and a ring of the chain's most
// recent payloads. The aggregator advances the chain exactly once per tier
// round — Encode is O(1) per round regardless of cohort size, the same
// shared-blob trick the fast wire encoding uses — and serves every
// receiver from the state its last ack names: one still in the ring gets the
// payloads it missed, in order (CatchUp); everyone else gets the
// post-round Base() dense.
//
// The chain numbers its states: Adopt and Encode each advance Version, so
// one number names one base for the chain's lifetime. A checkpoint resume
// builds fresh chains rather than keeping any, since no receiver's held
// state can be trusted then.
//
// The ring has no depth knob. A catch-up is worth sending only while it
// is smaller than the dense model, so the ring keeps the trailing payloads
// whose retained capacity stays under DenseBytes(n) and drops older ones:
// beside its base, residual and scratch vectors, a chain holds less than
// one dense model's bytes of payloads, in every mode.
//
// Chain state is a pure function of the sequence of broadcast vectors, so
// the simulated and socket runtimes, fed the same weights, produce
// byte-identical payloads and charge identical downlink bytes.
type Chain struct {
	d        *Downlink
	base     []float64
	residual []float64
	delta    []float64 // lossy Encode's scratch: the delta in, its reconstruction out
	ver      int       // the state base holds; 0 before the first Adopt
	ring     [][]byte  // the payloads that took state ver-len(ring) to ver, oldest first
	retained int       // Σ cap over ring, kept < DenseBytes(len(base))
}

// NewChain returns an empty chain for this downlink mode.
func (d *Downlink) NewChain() *Chain {
	if d == nil {
		return nil
	}
	return &Chain{d: d}
}

// HasBase reports whether the chain has adopted a base yet; until it has,
// the broadcast must go dense (first contact).
func (c *Chain) HasBase() bool { return c != nil && c.base != nil }

// Base returns the chain's current reconstruction base — the vector every
// up-to-date receiver holds after the last Adopt or Encode. In lossless
// mode it is bit-identical to the last broadcast vector; in lossy mode it
// is the receivers' reconstruction, which is also what local training must
// start from so uplink deltas are computed against the right point. The
// returned slice is owned by the chain; callers must not mutate it.
func (c *Chain) Base() []float64 { return c.base }

// Version returns the number of the state Base holds: 0 before the first
// Adopt, then one more per Adopt or Encode.
func (c *Chain) Version() int { return c.ver }

// Adopt seeds the chain with a dense broadcast: cur is copied in as the
// base every receiver of that dense snapshot now holds, as a new state no
// payload leads to.
func (c *Chain) Adopt(cur []float64) {
	c.base = append(c.base[:0], cur...)
	c.ver++
	c.dropRing()
}

// Encode advances the chain from its base to cur and returns the delta
// payload plus its wire codec ID. In lossless mode the payload is the
// flate-compressed XOR of bit patterns and the new base is cur itself; in
// lossy mode the payload encodes cur − base (plus the carried residual),
// and the new base is base + decode(payload) — exactly what every
// receiver reconstructs. The payload joins the ring. Callers must have
// checked HasBase.
func (c *Chain) Encode(cur []float64) (payload []byte, id byte) {
	payload, id = c.encode(cur)
	c.ver++
	c.ring = append(c.ring, payload)
	c.retained += cap(payload)
	drop := 0
	for budget := DenseBytes(len(c.base)); c.retained >= budget; drop++ {
		c.retained -= cap(c.ring[drop])
	}
	if drop > 0 {
		n := copy(c.ring, c.ring[drop:])
		clear(c.ring[n:])
		c.ring = c.ring[:n]
	}
	return payload, id
}

// CatchUp returns the payloads that take a receiver holding state from to
// the chain's current state, oldest first, and their total length — what
// the wire carries and the receiver is billed. It returns nil, 0 when
// there is no catch-up: from is the current state, was never a state of
// this chain, or predates the ring or the last Adopt; that receiver needs
// Base() dense. The slices are the chain's own and are valid until its
// next Adopt or Encode.
func (c *Chain) CatchUp(from int) (payloads [][]byte, size int) {
	if c == nil {
		return nil, 0
	}
	g := c.ver - from
	if g < 1 || g > len(c.ring) {
		return nil, 0
	}
	payloads = c.ring[len(c.ring)-g:]
	for _, p := range payloads {
		size += len(p)
	}
	return payloads, size
}

// dropRing forgets every payload: no earlier state reaches the base.
func (c *Chain) dropRing() {
	clear(c.ring)
	c.ring = c.ring[:0]
	c.retained = 0
}

func (c *Chain) encode(cur []float64) (payload []byte, id byte) {
	if !c.HasBase() {
		panic("compress: Chain.Encode without a base")
	}
	if len(cur) != len(c.base) {
		panic(fmt.Sprintf("compress: Chain.Encode length %d != base length %d", len(cur), len(c.base)))
	}
	if c.d.Codec == nil {
		payload = encodeXORDelta(cur, c.base)
		c.base = append(c.base[:0], cur...)
		return payload, IDDeltaXOR
	}
	if cap(c.delta) < len(cur) {
		c.delta = make([]float64, len(cur))
	}
	// Locals, not c.base: the stores through delta would otherwise make the
	// compiler reload the field on every coordinate.
	delta, base := c.delta[:len(cur)], c.base[:len(cur)]
	for i, x := range cur {
		delta[i] = x - base[i]
	}
	// rec lands in delta itself: one scratch vector serves both.
	payload, c.residual = EncodeFeedback(c.d.Codec, delta, c.residual, delta)
	for i, r := range delta {
		base[i] += r
	}
	return payload, c.d.Codec.ID()
}

// ApplyDelta is the receiver side of Chain.Encode: it reconstructs the
// broadcast vector from a delta payload and the locally held base.
// IDDeltaXOR payloads XOR bit patterns (bit-exact); lossy payloads decode
// and add in one pass through AddDecoded. base is not mutated; a fresh
// slice is returned.
func ApplyDelta(id byte, payload []byte, base []float64) ([]float64, error) {
	if id == IDDeltaXOR {
		out := make([]float64, len(base))
		if err := applyXORDelta(out, payload, base); err != nil {
			return nil, err
		}
		return out, nil
	}
	return AddDecoded(nil, id, payload, base)
}

// ApplyCatchUp is the receiver side of Chain.CatchUp: it applies the
// payloads to the held base in order, as ApplyDelta would one by one, into
// dst's storage — allocating only when cap(dst) is short of len(base) — and
// returns the result. Every payload is a delta against the previous state's
// base, so the result is the chain's current base bit for bit — XOR
// composes exactly, and a lossy step adds the same reconstruction the chain
// added. The first step reads base and every later one works in place. dst
// may be base itself; otherwise base is not mutated. An empty catch-up is
// an error; on error dst's contents are unspecified.
func ApplyCatchUp(dst []float64, id byte, payloads [][]byte, base []float64) ([]float64, error) {
	if len(payloads) == 0 {
		return nil, fmt.Errorf("compress: empty catch-up")
	}
	if cap(dst) < len(base) {
		dst = make([]float64, len(base))
	}
	out, from := dst[:len(base)], base
	for i, p := range payloads {
		var err error
		if id == IDDeltaXOR {
			err = applyXORDelta(out, p, from)
		} else {
			_, err = AddDecoded(out, id, p, from)
		}
		if err != nil {
			return nil, fmt.Errorf("compress: catch-up payload %d of %d: %w", i+1, len(payloads), err)
		}
		from = out
	}
	return out, nil
}

// SplitCatchUp cuts a catch-up that travelled as one blob — its payloads
// back to back — into the payloads, given their lengths. The lengths are
// checked before anything is sliced: each must be positive, and together
// they must cover blob exactly. The payloads alias blob.
func SplitCatchUp(blob []byte, lens []int) ([][]byte, error) {
	rest := len(blob)
	for _, l := range lens {
		if l <= 0 || l > rest {
			return nil, fmt.Errorf("compress: catch-up lengths %v do not split a %d-byte blob", lens, len(blob))
		}
		rest -= l
	}
	if rest != 0 {
		return nil, fmt.Errorf("compress: catch-up lengths %v leave %d of %d bytes", lens, rest, len(blob))
	}
	parts := make([][]byte, len(lens))
	for i, l := range lens {
		parts[i], blob = blob[:l:l], blob[l:]
	}
	return parts, nil
}

// xorDeltaHeader is the fixed prefix of an XOR delta payload: an 8-byte
// little-endian vector length, so truncated or misdirected payloads are
// rejected before inflating.
const xorDeltaHeader = 8

// encodeXORDelta serializes cur relative to base as the XOR of their
// float64 bit patterns, DEFLATE-compressed. Nearby model versions share
// sign, exponent, and high mantissa bits, so the XOR stream is mostly
// zero bytes and deflates well; an unchanged coordinate contributes eight
// zero bytes. The format is an 8-byte little-endian count followed by the
// flate stream of the 8n XOR bytes. The payload's capacity is its length:
// a Chain's ring budget counts capacity.
func encodeXORDelta(cur, base []float64) []byte {
	raw := make([]byte, 8*len(cur))
	for i := range cur {
		x := math.Float64bits(cur[i]) ^ math.Float64bits(base[i])
		binary.LittleEndian.PutUint64(raw[8*i:], x)
	}
	var buf bytes.Buffer
	buf.Grow(xorDeltaHeader + len(raw)/4)
	var hdr [xorDeltaHeader]byte
	binary.LittleEndian.PutUint64(hdr[:], uint64(len(cur)))
	buf.Write(hdr[:])
	zw, err := flate.NewWriter(&buf, flate.BestSpeed)
	if err != nil {
		panic(fmt.Sprintf("compress: flate.NewWriter: %v", err)) // impossible: level is valid
	}
	if _, err := zw.Write(raw); err != nil {
		panic(fmt.Sprintf("compress: flate write: %v", err)) // bytes.Buffer cannot fail
	}
	if err := zw.Close(); err != nil {
		panic(fmt.Sprintf("compress: flate close: %v", err))
	}
	return append(make([]byte, 0, buf.Len()), buf.Bytes()...)
}

// applyXORDelta reconstructs the broadcast vector from an XOR delta
// payload and the held base into out, which may be base itself; out is
// written only once the whole payload has inflated.
func applyXORDelta(out []float64, payload []byte, base []float64) error {
	if len(payload) < xorDeltaHeader {
		return fmt.Errorf("compress: xor delta payload %d bytes, want >= %d", len(payload), xorDeltaHeader)
	}
	n := binary.LittleEndian.Uint64(payload)
	if n != uint64(len(base)) {
		return fmt.Errorf("compress: xor delta for %d params, base has %d", n, len(base))
	}
	raw := make([]byte, 8*len(base))
	zr := flate.NewReader(bytes.NewReader(payload[xorDeltaHeader:]))
	if _, err := io.ReadFull(zr, raw); err != nil {
		return fmt.Errorf("compress: xor delta inflate: %v", err)
	}
	// The stream must hold exactly 8n bytes; trailing garbage means the
	// payload was built against a different-length vector.
	var extra [1]byte
	if m, _ := zr.Read(extra[:]); m != 0 {
		return fmt.Errorf("compress: xor delta has trailing data")
	}
	if err := zr.Close(); err != nil {
		return fmt.Errorf("compress: xor delta close: %v", err)
	}
	for i := range out {
		x := binary.LittleEndian.Uint64(raw[8*i:])
		out[i] = math.Float64frombits(math.Float64bits(base[i]) ^ x)
	}
	return nil
}
