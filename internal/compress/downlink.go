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
// (server -> worker) traffic: always as a delta against the receiver's
// last-acked model version, optionally through a lossy codec with
// server-side error feedback.
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

// Lossless reports whether every receiver reconstructs the broadcast
// vector bit-exactly.
func (d *Downlink) Lossless() bool { return d == nil || d.Codec == nil }

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
// every up-to-date receiver in the tier currently holds, plus the
// error-feedback residual for lossy modes. The aggregator advances the
// chain exactly once per tier round — Encode is O(1) per round regardless
// of cohort size, the same shared-blob trick the fast wire encoding uses —
// and sends the resulting payload to every receiver whose last ack matches
// the chain's base; everyone else gets the post-round Base() dense.
//
// Chain state is a pure function of the sequence of broadcast vectors, so
// the simulated and socket runtimes, fed the same weights, produce
// byte-identical payloads and charge identical downlink bytes.
type Chain struct {
	d        *Downlink
	base     []float64
	residual []float64
	delta    []float64 // lossy Encode's scratch: the delta in, its reconstruction out
}

// NewChain returns an empty chain for this downlink mode.
func (d *Downlink) NewChain() *Chain {
	if d == nil {
		return nil
	}
	return &Chain{d: d}
}

// HasBase reports whether the chain has adopted a base yet; until it has,
// the broadcast must go dense (first contact, or just after Reset).
func (c *Chain) HasBase() bool { return c != nil && c.base != nil }

// Base returns the chain's current reconstruction base — the vector every
// up-to-date receiver holds after the last Adopt or Encode. In lossless
// mode it is bit-identical to the last broadcast vector; in lossy mode it
// is the receivers' reconstruction, which is also what local training must
// start from so uplink deltas are computed against the right point. The
// returned slice is owned by the chain; callers must not mutate it.
func (c *Chain) Base() []float64 { return c.base }

// Adopt seeds the chain with a dense broadcast: cur is copied in as the
// base every receiver of that dense snapshot now holds.
func (c *Chain) Adopt(cur []float64) {
	c.base = append(c.base[:0], cur...)
}

// Encode advances the chain from its base to cur and returns the delta
// payload plus its wire codec ID. In lossless mode the payload is the
// flate-compressed XOR of bit patterns and the new base is cur itself; in
// lossy mode the payload encodes cur − base (plus the carried residual),
// and the new base is base + decode(payload) — exactly what every
// receiver reconstructs. Callers must have checked HasBase.
func (c *Chain) Encode(cur []float64) (payload []byte, id byte) {
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
	delta := c.delta[:len(cur)]
	for i := range delta {
		delta[i] = cur[i] - c.base[i]
	}
	// rec lands in delta itself: one scratch vector serves both.
	payload, c.residual = EncodeFeedback(c.d.Codec, delta, c.residual, delta)
	for i, r := range delta {
		c.base[i] += r
	}
	return payload, c.d.Codec.ID()
}

// Reset drops the base and residual; the next broadcast goes dense. Used
// on checkpoint resume, where no receiver's held version can be trusted.
func (c *Chain) Reset() {
	if c == nil {
		return
	}
	c.base = nil
	c.residual = nil
}

// ApplyDelta is the receiver side of Chain.Encode: it reconstructs the
// broadcast vector from a delta payload and the locally held base.
// IDDeltaXOR payloads XOR bit patterns (bit-exact); lossy payloads decode
// and add in one pass through AddDecoded. base is not mutated; a fresh
// slice is returned.
func ApplyDelta(id byte, payload []byte, base []float64) ([]float64, error) {
	if id == IDDeltaXOR {
		return applyXORDelta(payload, base)
	}
	return AddDecoded(id, payload, base)
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
// flate stream of the 8n XOR bytes.
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
	return buf.Bytes()
}

// applyXORDelta reconstructs the broadcast vector from an XOR delta
// payload and the held base.
func applyXORDelta(payload []byte, base []float64) ([]float64, error) {
	if len(payload) < xorDeltaHeader {
		return nil, fmt.Errorf("compress: xor delta payload %d bytes, want >= %d", len(payload), xorDeltaHeader)
	}
	n := binary.LittleEndian.Uint64(payload)
	if n != uint64(len(base)) {
		return nil, fmt.Errorf("compress: xor delta for %d params, base has %d", n, len(base))
	}
	raw := make([]byte, 8*len(base))
	zr := flate.NewReader(bytes.NewReader(payload[xorDeltaHeader:]))
	if _, err := io.ReadFull(zr, raw); err != nil {
		return nil, fmt.Errorf("compress: xor delta inflate: %v", err)
	}
	// The stream must hold exactly 8n bytes; trailing garbage means the
	// payload was built against a different-length vector.
	var extra [1]byte
	if m, _ := zr.Read(extra[:]); m != 0 {
		return nil, fmt.Errorf("compress: xor delta has trailing data")
	}
	if err := zr.Close(); err != nil {
		return nil, fmt.Errorf("compress: xor delta close: %v", err)
	}
	out := make([]float64, len(base))
	for i := range out {
		x := binary.LittleEndian.Uint64(raw[8*i:])
		out[i] = math.Float64frombits(math.Float64bits(base[i]) ^ x)
	}
	return out, nil
}
