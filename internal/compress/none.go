package compress

import (
	"fmt"

	"repro/internal/nn"
)

// None is the dense baseline codec: the payload is exactly the
// nn.EncodeWeights blob flnet peers exchange in their Raw fields, so codec
// 0 and "no codec configured" are the same bytes.
type None struct{}

// Name implements Codec.
func (None) Name() string { return "none" }

// ID implements Codec.
func (None) ID() byte { return IDNone }

// Lossless implements Codec.
func (None) Lossless() bool { return true }

// EncodedBytes implements Codec.
func (None) EncodedBytes(n int) int { return DenseBytes(n) }

// Encode implements Codec.
func (None) Encode(w []float64) []byte { return nn.EncodeWeights(w) }

// Decode implements Codec.
func (None) Decode(payload []byte, n int) ([]float64, error) {
	w, err := nn.DecodeWeights(payload)
	if err != nil {
		return nil, err
	}
	if len(w) != n {
		return nil, fmt.Errorf("compress: dense payload carries %d weights, want %d", len(w), n)
	}
	return w, nil
}
