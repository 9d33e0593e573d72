package compress

import "testing"

// Allocation contract of the int8 delta path, in the style of
// nn/alloc_test.go: at steady state (residual carried, chain scratch sized)
// an encode allocates its payload and nothing else (a chain whose ring is
// full not even that), a decode-and-add allocates the one vector it
// returns, and a catch-up into a held vector allocates nothing.

func wantAllocs(t *testing.T, what string, want float64, f func()) {
	t.Helper()
	f() // warm up: first-call residual and scratch
	if got := testing.AllocsPerRun(20, f); got != want {
		t.Errorf("%s allocates %v times per call at steady state, want %v", what, got, want)
	}
}

func TestInt8EncodeSteadyStateAllocs(t *testing.T) {
	const n = 5000
	c, src, delta := NewInt8(0), testVector(n, 1), make([]float64, n)
	var residual []float64
	wantAllocs(t, "EncodeDelta (payload + the rec it returns)", 2, func() {
		copy(delta, src)
		_, _, residual = EncodeDelta(c, delta, residual)
	})
	wantAllocs(t, "EncodeFeedback without rec (payload)", 1, func() {
		copy(delta, src)
		_, residual = EncodeFeedback(c, delta, residual, nil)
	})

	ch := (&Downlink{Codec: c}).NewChain()
	cur, next := testVector(n, 2), testVector(n, 3)
	ch.Adopt(cur)
	encode := func() {
		ch.Encode(next)
		cur, next = next, cur
	}
	// Once the ring is full, each payload is encoded into the one it drops.
	for range DenseBytes(n) / c.EncodedBytes(n) {
		encode()
	}
	wantAllocs(t, "Chain.Encode with a full ring", 0, encode)
}

func TestInt8DecodeAddAllocs(t *testing.T) {
	const n = 5000
	base := testVector(n, 1)
	ch := (&Downlink{Codec: NewInt8(0)}).NewChain()
	ch.Adopt(base)
	payload, id := ch.Encode(testVector(n, 2))
	wantAllocs(t, "ApplyDelta", 1, func() {
		if _, err := ApplyDelta(id, payload, base); err != nil {
			t.Fatal(err)
		}
	})
	// A receiver's catch-up lands in the vector it holds for the round.
	second, _ := ch.Encode(testVector(n, 4))
	held, parts := make([]float64, n), [][]byte{payload, second}
	wantAllocs(t, "ApplyCatchUp into a held destination", 0, func() {
		if _, err := ApplyCatchUp(held, id, parts, base); err != nil {
			t.Fatal(err)
		}
	})
	// An int8 update decodes into the receiver's recycled vector.
	wantAllocs(t, "AddDecoded (int8) into a held destination", 0, func() {
		if _, err := AddDecoded(held, id, payload, base); err != nil {
			t.Fatal(err)
		}
	})
	// The generic route (here top-k) adds into the slice Decode returned.
	topk := NewTopK(0.1)
	sparse := topk.Encode(testVector(n, 3))
	wantAllocs(t, "AddDecoded (top-k)", 1, func() {
		if _, err := AddDecoded(nil, topk.ID(), sparse, base); err != nil {
			t.Fatal(err)
		}
	})
}
