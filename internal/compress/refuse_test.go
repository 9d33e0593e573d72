package compress_test

import (
	"math"
	"strings"
	"testing"

	"repro/internal/compress"
	"repro/internal/flcore"
	"repro/internal/flnet"
)

// TestSparseDownlinkRefused: the broadcast's one lossy codec is int8, so a
// sparsified or unknown downlink is refused with an error — at parse time,
// by every run's spec check and by a tree child — and a receiver handed a
// delta codec byte no chain emits writes nothing.
func TestSparseDownlinkRefused(t *testing.T) {
	topk := compress.NewTopK(0.1)
	base := []float64{1, -2, 3, 0.5, -0.25, 8, 13, -21}
	payload := topk.Encode([]float64{0.1, 0, 0, 0, 0, 0, 0, 0.3})
	sparse := &compress.Downlink{Codec: topk}
	const sentinel = -7.75
	for _, row := range []struct {
		name string
		run  func(dst []float64) error
	}{
		{"ParseDownlink top-k 0.1", parse("delta+" + topk.Name())},
		{"ParseDownlink top-k 0.5", parse("delta+" + compress.NewTopK(0.5).Name())},
		{"ParseDownlink delta+none", parse("delta+none")},
		{"ApplyDelta IDTopK", func(dst []float64) error {
			_, err := compress.ApplyDelta(compress.IDTopK, payload, dst)
			return err
		}},
		{"ApplyDelta unknown byte", func(dst []float64) error {
			_, err := compress.ApplyDelta(0x7f, payload, dst)
			return err
		}},
		{"ApplyCatchUp IDTopK", func(dst []float64) error {
			_, err := compress.ApplyCatchUp(dst, compress.IDTopK, [][]byte{payload, payload}, base)
			return err
		}},
		{"ApplyCatchUp unknown byte", func(dst []float64) error {
			_, err := compress.ApplyCatchUp(dst, 0x7f, [][]byte{payload}, base)
			return err
		}},
		{"CommitterConfig.Validate", func([]float64) error {
			return flcore.CommitterConfig{ClientsPerRound: 1, Downlink: sparse}.Validate()
		}},
		{"flnet.NewChild", func([]float64) error {
			ch, err := flnet.NewChild(flnet.ChildConfig{Workers: 1, RootAddr: "127.0.0.1:1", Downlink: sparse})
			if err == nil {
				ch.Close()
			}
			return err
		}},
	} {
		dst := make([]float64, len(base))
		for i := range dst {
			dst[i] = sentinel
		}
		if err := row.run(dst); err == nil || !strings.Contains(err.Error(), "downlink") {
			t.Errorf("%s: got %v, want a downlink refusal", row.name, err)
		}
		for i, v := range dst {
			if math.Float64bits(v) != math.Float64bits(sentinel) {
				t.Errorf("%s: dst[%d] = %v, written by a refused call", row.name, i, v)
				break
			}
		}
	}
}

func parse(spec string) func([]float64) error {
	return func([]float64) error {
		d, err := compress.ParseDownlink(spec)
		if d != nil {
			return nil
		}
		return err
	}
}
