package compress

import (
	"math"
	"math/rand"
	"slices"
	"testing"
)

func TestParseDownlink(t *testing.T) {
	for _, spec := range []string{"", "dense", "none"} {
		d, err := ParseDownlink(spec)
		if err != nil || d != nil {
			t.Fatalf("ParseDownlink(%q) = %v, %v; want nil, nil", spec, d, err)
		}
	}
	d, err := ParseDownlink("delta")
	if err != nil || d == nil || d.Codec != nil {
		t.Fatalf("ParseDownlink(delta) = %v, %v; want lossless", d, err)
	}
	if !d.Lossless() || d.Name() != "delta" {
		t.Fatalf("lossless delta: Lossless=%v Name=%q", d.Lossless(), d.Name())
	}
	d, err = ParseDownlink("delta+int8")
	if err != nil || d == nil || d.Codec == nil || d.Codec.ID() != IDInt8 {
		t.Fatalf("ParseDownlink(delta+int8) = %v, %v", d, err)
	}
	if d.Lossless() {
		t.Fatal("delta+int8 must not report lossless")
	}
	d, err = ParseDownlink("delta+topk@0.25")
	if err != nil || d == nil || d.Codec == nil || d.Codec.ID() != IDTopK {
		t.Fatalf("ParseDownlink(delta+topk@0.25) = %v, %v", d, err)
	}
	// Round trip through Name.
	for _, spec := range []string{"delta", "delta+int8", "delta+topk@0.1"} {
		d, err := ParseDownlink(spec)
		if err != nil {
			t.Fatalf("ParseDownlink(%q): %v", spec, err)
		}
		if got := d.Name(); got != spec {
			t.Fatalf("Name round trip: %q -> %q", spec, got)
		}
		if _, err := ParseDownlink(d.Name()); err != nil {
			t.Fatalf("re-parse %q: %v", d.Name(), err)
		}
	}
	if (*Downlink)(nil).Name() != "dense" {
		t.Fatalf("nil Downlink Name = %q, want dense", (*Downlink)(nil).Name())
	}
	for _, bad := range []string{"delta+", "delta+none", "delta+bogus", "xor", "delta+topk@7"} {
		if _, err := ParseDownlink(bad); err == nil {
			t.Fatalf("ParseDownlink(%q) accepted", bad)
		}
	}
}

// randWalk returns length-n vectors base and cur where cur is base plus a
// small per-coordinate step — the shape of consecutive model versions.
func randWalk(n int, rng *rand.Rand) (base, cur []float64) {
	base = make([]float64, n)
	cur = make([]float64, n)
	for i := range base {
		base[i] = rng.NormFloat64()
		cur[i] = base[i] + 0.01*rng.NormFloat64()
	}
	return base, cur
}

func TestXORDeltaBitExact(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	base, cur := randWalk(1000, rng)
	// Throw in the awkward bit patterns arithmetic deltas would mangle.
	cur[0] = math.Copysign(0, -1)
	cur[1] = math.SmallestNonzeroFloat64
	cur[2] = math.MaxFloat64
	cur[3] = base[3] // unchanged coordinate -> zero XOR word
	payload := encodeXORDelta(cur, base)
	got, err := ApplyDelta(IDDeltaXOR, payload, base)
	if err != nil {
		t.Fatalf("ApplyDelta: %v", err)
	}
	for i := range cur {
		if math.Float64bits(got[i]) != math.Float64bits(cur[i]) {
			t.Fatalf("coordinate %d: got %x want %x", i, math.Float64bits(got[i]), math.Float64bits(cur[i]))
		}
	}
	if len(payload) >= DenseBytes(len(cur)) {
		t.Fatalf("xor delta of a small step did not compress: %d >= %d", len(payload), DenseBytes(len(cur)))
	}
}

func TestXORDeltaRejectsBadPayloads(t *testing.T) {
	base := []float64{1, 2, 3}
	payload := encodeXORDelta([]float64{1.5, 2, 3}, base)
	if _, err := ApplyDelta(IDDeltaXOR, payload[:4], base); err == nil {
		t.Fatal("truncated header accepted")
	}
	if _, err := ApplyDelta(IDDeltaXOR, payload, base[:2]); err == nil {
		t.Fatal("length mismatch accepted")
	}
	if _, err := ApplyDelta(IDDeltaXOR, payload[:len(payload)-3], base); err == nil {
		t.Fatal("truncated stream accepted")
	}
	corrupt := append([]byte(nil), payload...)
	corrupt[xorDeltaHeader] ^= 0xFF
	if _, err := ApplyDelta(IDDeltaXOR, corrupt, base); err == nil {
		t.Log("corrupt stream happened to inflate; acceptable (flate has no checksum)")
	}
	// A payload built for a longer vector must not apply to a shorter base.
	long := encodeXORDelta(make([]float64, 5), make([]float64, 5))
	if _, err := ApplyDelta(IDDeltaXOR, long, base); err == nil {
		t.Fatal("wrong-length payload accepted")
	}
	if _, err := ApplyDelta(77, []byte{1, 2, 3}, base); err == nil {
		t.Fatal("unknown delta codec id accepted")
	}
}

func TestChainLosslessRoundTrip(t *testing.T) {
	d, err := ParseDownlink("delta")
	if err != nil {
		t.Fatal(err)
	}
	ch := d.NewChain()
	if ch.HasBase() {
		t.Fatal("fresh chain claims a base")
	}
	rng := rand.New(rand.NewSource(4))
	held := make([]float64, 512) // the receiver's copy
	w := make([]float64, 512)
	for i := range w {
		w[i] = rng.NormFloat64()
	}
	ch.Adopt(w)
	copy(held, w) // dense first contact
	for step := 0; step < 5; step++ {
		for i := range w {
			w[i] += 0.005 * rng.NormFloat64()
		}
		payload, id := ch.Encode(w)
		if id != IDDeltaXOR {
			t.Fatalf("lossless chain emitted codec id %d", id)
		}
		got, err := ApplyDelta(id, payload, held)
		if err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
		for i := range w {
			if math.Float64bits(got[i]) != math.Float64bits(w[i]) {
				t.Fatalf("step %d coord %d: reconstruction not bit-exact", step, i)
			}
		}
		held = got
		// The chain's base must equal the broadcast vector bit-for-bit.
		for i, b := range ch.Base() {
			if math.Float64bits(b) != math.Float64bits(w[i]) {
				t.Fatalf("step %d: chain base diverged at %d", step, i)
			}
		}
	}
	ch.Reset()
	if ch.HasBase() {
		t.Fatal("Reset left a base behind")
	}
}

func TestChainLossyReceiverAgreement(t *testing.T) {
	for _, spec := range []string{"delta+int8", "delta+topk@0.25"} {
		d, err := ParseDownlink(spec)
		if err != nil {
			t.Fatal(err)
		}
		ch := d.NewChain()
		rng := rand.New(rand.NewSource(11))
		w := make([]float64, 300)
		for i := range w {
			w[i] = rng.NormFloat64()
		}
		ch.Adopt(w)
		held := append([]float64(nil), w...)
		for step := 0; step < 4; step++ {
			for i := range w {
				w[i] += 0.01 * rng.NormFloat64()
			}
			payload, id := ch.Encode(w)
			if id != d.Codec.ID() {
				t.Fatalf("%s: emitted id %d want %d", spec, id, d.Codec.ID())
			}
			got, err := ApplyDelta(id, payload, held)
			if err != nil {
				t.Fatalf("%s step %d: %v", spec, step, err)
			}
			// Server chain base and receiver reconstruction must agree
			// exactly: that is the invariant that makes the base usable
			// as the uplink reconstruction point.
			for i := range got {
				if math.Float64bits(got[i]) != math.Float64bits(ch.Base()[i]) {
					t.Fatalf("%s step %d coord %d: receiver %v != chain base %v",
						spec, step, i, got[i], ch.Base()[i])
				}
			}
			held = got
		}
	}
}

// TestChainLossyErrorFeedback checks that the per-tier residual carries
// dropped mass forward: broadcasting the same target twice through a
// top-k chain gets the base closer the second time than a residual-free
// encoder would.
func TestChainLossyErrorFeedback(t *testing.T) {
	d, err := ParseDownlink("delta+topk@0.10")
	if err != nil {
		t.Fatal(err)
	}
	ch := d.NewChain()
	rng := rand.New(rand.NewSource(3))
	start := make([]float64, 400)
	target := make([]float64, 400)
	for i := range start {
		start[i] = rng.NormFloat64()
		target[i] = start[i] + rng.NormFloat64()
	}
	ch.Adopt(start)
	errAt := func() float64 {
		var s float64
		for i, b := range ch.Base() {
			dv := target[i] - b
			s += dv * dv
		}
		return s
	}
	ch.Encode(target)
	first := errAt()
	ch.Encode(target)
	second := errAt()
	if second >= first {
		t.Fatalf("error feedback did not shrink reconstruction error: %v -> %v", first, second)
	}
}

// TestChainCatchUp is the ring's contract, per mode: from every state still
// in the ring, the catch-up applied to the base held at that state
// reproduces Base() bit for bit; the ring's retained capacity stays under
// DenseBytes(n) across 200 encodes; and there is no catch-up from the
// current state, from a state older than the ring, from one before the
// last Adopt, or after Reset — whose state numbers are never reused.
func TestChainCatchUp(t *testing.T) {
	for _, spec := range []string{"delta", "delta+int8", "delta+topk@0.25"} {
		t.Run(spec, func(t *testing.T) {
			d, err := ParseDownlink(spec)
			if err != nil {
				t.Fatal(err)
			}
			const n = 256
			rng := rand.New(rand.NewSource(5))
			w := make([]float64, n)
			for i := range w {
				w[i] = rng.NormFloat64()
			}
			ch := d.NewChain()
			ch.Adopt(w)
			held := map[int][]float64{ch.Version(): slices.Clone(ch.Base())} // the base a receiver holds at each state
			deepest := 0
			for step := 0; step < 200; step++ {
				// A sparse step — a tenth of the coordinates move — so the
				// lossless XOR payload, too, leaves room for several.
				for k := 0; k < n/10; k++ {
					w[rng.Intn(n)] += 0.01 * rng.NormFloat64()
				}
				_, id := ch.Encode(w)
				held[ch.Version()] = slices.Clone(ch.Base())
				retained := 0
				for _, p := range ch.ring {
					retained += cap(p)
				}
				if retained != ch.retained || retained >= DenseBytes(n) {
					t.Fatalf("step %d: ring retains %d bytes (tracked %d), budget %d", step, retained, ch.retained, DenseBytes(n))
				}
				if p, size := ch.CatchUp(ch.Version()); p != nil || size != 0 {
					t.Fatalf("step %d: catch-up from the current state", step)
				}
				oldest := ch.Version() - len(ch.ring)
				for s := oldest; s < ch.Version(); s++ {
					parts, size := ch.CatchUp(s)
					if len(parts) != ch.Version()-s {
						t.Fatalf("step %d: catch-up from state %d has %d payloads, want %d", step, s, len(parts), ch.Version()-s)
					}
					sum := 0
					for _, p := range parts {
						sum += len(p)
					}
					if size != sum || size >= DenseBytes(n) {
						t.Fatalf("step %d: catch-up from state %d bills %d bytes of %d, dense %d", step, s, size, sum, DenseBytes(n))
					}
					got, err := ApplyCatchUp(id, parts, held[s])
					if err != nil {
						t.Fatalf("step %d from state %d: %v", step, s, err)
					}
					sameBits(t, "caught-up receiver", got, ch.Base())
					deepest = max(deepest, len(parts))
				}
				if p, _ := ch.CatchUp(oldest - 1); p != nil {
					t.Fatalf("step %d: catch-up from state %d, older than the ring", step, oldest-1)
				}
				delete(held, oldest-1)
			}
			if deepest < 2 {
				t.Fatalf("the ring never held two payloads; the catch-ups were all one step")
			}

			before := ch.Version()
			ch.Adopt(w)
			ch.Encode(w)
			if ch.Version() != before+2 {
				t.Fatalf("Adopt and Encode took state %d to %d, want %d", before, ch.Version(), before+2)
			}
			if p, _ := ch.CatchUp(before); p != nil {
				t.Fatal("catch-up across an Adopt")
			}
			if p, _ := ch.CatchUp(before + 1); len(p) != 1 {
				t.Fatalf("catch-up from the adopted state has %d payloads, want 1", len(p))
			}
			ch.Reset()
			if ch.HasBase() || ch.Version() != before+2 {
				t.Fatalf("Reset left base %v, state %d; want none, %d", ch.HasBase(), ch.Version(), before+2)
			}
			if p, _ := ch.CatchUp(before + 1); p != nil {
				t.Fatal("catch-up after Reset")
			}
			ch.Adopt(w)
			if ch.Version() != before+3 {
				t.Fatalf("Adopt after Reset reached state %d, want the unused %d", ch.Version(), before+3)
			}
		})
	}
}

func TestSplitCatchUp(t *testing.T) {
	blob := []byte{1, 2, 3, 4, 5, 6}
	parts, err := SplitCatchUp(blob, []int{2, 1, 3})
	if err != nil || len(parts) != 3 || !slices.Equal(parts[1], []byte{3}) || cap(parts[0]) != 2 {
		t.Fatalf("SplitCatchUp = %v, %v", parts, err)
	}
	for _, lens := range [][]int{nil, {6, 1}, {5}, {7}, {0, 6}, {-1, 7}, {3, 3, 0}, {1 << 62, 1 << 62}} {
		if _, err := SplitCatchUp(blob, lens); err == nil {
			t.Errorf("lengths %v split a %d-byte blob", lens, len(blob))
		}
	}
	if _, err := ApplyCatchUp(IDInt8, nil, []float64{1}); err == nil {
		t.Error("empty catch-up applied")
	}
}

func TestChainEncodePanicsWithoutBase(t *testing.T) {
	d := &Downlink{}
	ch := d.NewChain()
	defer func() {
		if recover() == nil {
			t.Fatal("Encode without base did not panic")
		}
	}()
	ch.Encode([]float64{1})
}
