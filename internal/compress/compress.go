// Package compress implements the update-compression subsystem for
// cross-tier commits: pluggable codecs that shrink a client's weight delta
// before it travels to the aggregator — over the simulated latency model
// (simres charges for actual encoded bytes) and over the real wire
// (flnet's MsgCompressedUpdate envelope) alike.
//
// Two lossy codecs are provided alongside the dense baseline:
//
//   - Int8: uniform 8-bit quantization with one float32 scale per chunk,
//     an ~8x reduction that touches every coordinate.
//   - TopK: top-k sparsification — only the k largest-magnitude
//     coordinates travel as (index, value) pairs, a 10–100x reduction at
//     k = 10%–1% of the parameters.
//
// Both are deterministic: encoding the same vector always yields the same
// bytes (ties in TopK break toward the lower index), so compressed runs
// stay bit-reproducible like everything else in this codebase. Lossy
// compression composes with training through error feedback (EncodeDelta):
// the client keeps the encoding error as a residual and adds it to the next
// round's delta, so dropped or rounded mass is delayed, never lost — the
// standard trick that keeps top-k at 1–10% density near dense accuracy.
//
// The zero codec ID is the dense baseline (nn.EncodeWeights format), which
// is also what a flnet worker configured without a codec registers with.
package compress

import (
	"fmt"
	"strconv"
	"strings"
)

// Wire codec IDs. These are protocol constants (flnet's Register and
// CompressedUpdate messages carry them); never renumber.
const (
	IDNone byte = 0
	IDInt8 byte = 1
	IDTopK byte = 2
)

// Codec turns a weight (delta) vector into a compact wire payload and back.
// Implementations must be deterministic — identical input vectors must
// produce identical payloads — and safe for concurrent use.
type Codec interface {
	// Name is the human-readable codec spec, e.g. "int8" or "topk@0.10";
	// Parse(Name()) reconstructs the codec.
	Name() string
	// ID is the wire discriminator (one of the ID* constants).
	ID() byte
	// Encode serializes the vector into a self-describing payload.
	Encode(w []float64) []byte
	// Decode parses a payload produced by Encode. n is the expected vector
	// length; a payload that disagrees (or is truncated, corrupt, or
	// carries non-finite metadata) is rejected with an error, never a
	// panic.
	Decode(payload []byte, n int) ([]float64, error)
	// EncodedBytes reports the payload size for an n-vector without
	// encoding one — the quantity the simulated latency model charges for.
	EncodedBytes(n int) int
	// Lossless reports whether Decode(Encode(w)) reproduces w exactly.
	Lossless() bool
}

// Known reports whether id names a codec this build can decode.
func Known(id byte) bool {
	return id == IDNone || id == IDInt8 || id == IDTopK
}

// DecodePayload decodes a payload by wire ID — the receiver side of codec
// negotiation, where only the ID travels with the bytes. Every payload is
// self-describing, so no codec parameters are needed to decode.
func DecodePayload(id byte, payload []byte, n int) ([]float64, error) {
	switch id {
	case IDNone:
		return None{}.Decode(payload, n)
	case IDInt8:
		return Int8{}.Decode(payload, n)
	case IDTopK:
		return TopK{Fraction: 1}.Decode(payload, n)
	default:
		return nil, fmt.Errorf("compress: unknown codec id %d", id)
	}
}

// Parse builds a codec from its spec string: "none", "int8",
// "int8@<chunk>", "topk@<fraction>" (e.g. "topk@0.1"), or "topk" (10%).
// It is the inverse of Codec.Name and the -codec flag syntax of tifl-node.
func Parse(spec string) (Codec, error) {
	name, arg, hasArg := strings.Cut(spec, "@")
	switch name {
	case "", "none":
		return None{}, nil
	case "int8":
		if !hasArg {
			return NewInt8(0), nil
		}
		chunk, err := strconv.Atoi(arg)
		if err != nil || chunk <= 0 {
			return nil, fmt.Errorf("compress: bad int8 chunk %q", arg)
		}
		return NewInt8(chunk), nil
	case "topk":
		if !hasArg {
			return NewTopK(0.10), nil
		}
		frac, err := strconv.ParseFloat(arg, 64)
		if err != nil || frac <= 0 || frac > 1 {
			return nil, fmt.Errorf("compress: bad topk fraction %q", arg)
		}
		return NewTopK(frac), nil
	default:
		return nil, fmt.Errorf("compress: unknown codec %q", spec)
	}
}

// DenseBytes is the dense wire size of an n-parameter weight vector
// (nn.EncodeWeights: 8-byte header + 8 bytes per float64) — the baseline
// every codec's compression ratio is measured against.
func DenseBytes(n int) int { return 8 + 8*n }

// EncodeDelta applies error-feedback compression to one client update: the
// carried residual (encoding error accumulated over previous rounds; nil on
// the first) is added into delta in place, the sum is encoded, and the new
// residual is what the encoding dropped. It returns the wire payload, the
// reconstruction rec the receiver will decode (delta ≈ rec + residual), and
// the updated residual for the client to carry into its next round.
func EncodeDelta(c Codec, delta, residual []float64) (payload []byte, rec, newResidual []float64) {
	rec = make([]float64, len(delta))
	payload, newResidual = EncodeFeedback(c, delta, residual, rec)
	return payload, rec, newResidual
}

// EncodeFeedback is EncodeDelta without the fresh rec slice, for callers
// that carry their own scratch or never look at the reconstruction: rec is
// nil, or a len(delta) buffer that receives it — delta itself will do, and
// then holds the reconstruction instead of the sum on return. An Int8 codec
// quantizes, reconstructs and takes the residual in one pass per chunk and
// allocates only the payload; any other Codec goes through its own Encode
// and Decode, producing the same bytes it always has.
func EncodeFeedback(c Codec, delta, residual, rec []float64) (payload []byte, newResidual []float64) {
	if residual != nil && len(residual) != len(delta) {
		panic(fmt.Sprintf("compress: residual length %d != delta length %d", len(residual), len(delta)))
	}
	if rec != nil && len(rec) != len(delta) {
		panic(fmt.Sprintf("compress: rec length %d != delta length %d", len(rec), len(delta)))
	}
	carry := residual
	if residual == nil {
		residual = make([]float64, len(delta))
	}
	if q, ok := c.(Int8); ok {
		return q.encode(delta, carry, rec, residual), residual
	}
	for i, r := range carry {
		delta[i] += r
	}
	payload = c.Encode(delta)
	dec, err := c.Decode(payload, len(delta))
	if err != nil {
		panic(fmt.Sprintf("compress: %s cannot decode its own encoding: %v", c.Name(), err))
	}
	for i := range residual {
		residual[i] = delta[i] - dec[i]
	}
	copy(rec, dec)
	return payload, residual
}

// AddDecoded decodes a payload by wire ID, as DecodePayload does, and
// returns base + decoded elementwise in one fresh slice — the receiver side
// of every compressed delta (a worker's uplink against the round's
// broadcast, a lossy downlink against the held base). base is not mutated;
// a payload DecodePayload would reject is rejected here with no vector.
func AddDecoded(id byte, payload []byte, base []float64) ([]float64, error) {
	if id == IDInt8 {
		return decodeInt8(payload, len(base), base)
	}
	out, err := DecodePayload(id, payload, len(base))
	if err != nil {
		return nil, err
	}
	for i, b := range base {
		out[i] = b + out[i]
	}
	return out, nil
}
