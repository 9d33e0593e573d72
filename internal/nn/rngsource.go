package nn

import "math/rand"

// Source is math/rand's generator, bit for bit: the additive lagged
// Fibonacci generator with lags 607 and 273 behind rand.NewSource, so
// rand.New(NewSource(seed)) draws exactly what rand.New(rand.NewSource(seed))
// draws. It differs in cost only. Seed runs math/rand's Lehmer chain
// x ← 48271·x mod (2³¹−1) by the Mersenne identity over four interleaved
// chains instead of by Schrage's divisions, and Skip advances the stream
// in runs of contiguous adds instead of one call per step.
type Source struct {
	tap, feed int
	vec       [rngLen]int64
}

const (
	rngLen   = 607
	rngTap   = 273
	mersenne = 1<<31 - 1 // the Lehmer chain's modulus
	lehmerA  = 48271     // its multiplier
)

// NewSource returns a Source seeded as rand.NewSource(seed) is.
func NewSource(seed int64) *Source {
	s := new(Source)
	s.Seed(seed)
	return s
}

// lehmerPow and lehmerStep are the chain's multiplier raised to the powers
// Seed needs, mod 2³¹−1: lehmerPow[k] = 48271²¹⁺ᵏ (the first values Seed
// keeps are the seed's 21st to 24th successors) and lehmerStep = 48271⁴
// (one step of each of the four interleaved chains).
var lehmerPow, lehmerStep = func() ([4]uint64, uint64) {
	var pow [4]uint64
	a := uint64(1)
	for k := 1; k <= 24; k++ {
		a = mulMod(a, lehmerA)
		if k >= 21 {
			pow[k-21] = a
		}
	}
	step := mulMod(mulMod(lehmerA, lehmerA), mulMod(lehmerA, lehmerA))
	return pow, step
}()

// mulMod returns x·a mod 2³¹−1 for x, a < 2³¹: 2³¹ ≡ 1, so the product's
// bits above 31 fold onto its low 31 twice, and one conditional subtract
// finishes the reduction.
func mulMod(x, a uint64) uint64 {
	p := x * a
	p = p&mersenne + p>>31
	p = p&mersenne + p>>31
	if p >= mersenne {
		p -= mersenne
	}
	return p
}

// cooked is math/rand's table rngCooked, recovered from the generator
// itself rather than pasted (cookedTable).
var cooked = cookedTable()

// cookedTable recovers math/rand's seeding table: it reads the state a
// fixed seed leaves from that seed's first 607 outputs and XORs the seed's
// chain values back out. With tap = 0 and feed = 334 after Seed, output k
// (1-based) is vec[feed_k] + vec[tap_k] stored at feed_k, where tap_k =
// 607−k and feed_k = 334−k, or 941−k once k > 334. Outputs 335…607 and
// 274…334 add an earlier output to an untouched entry; outputs 1…273 add
// two untouched entries, one of which the first group recovered.
func cookedTable() *[rngLen]int64 {
	const seed = 1
	r := rand.NewSource(seed).(rand.Source64)
	var o [rngLen + 1]int64 // o[k] is the k-th output
	for k := 1; k <= rngLen; k++ {
		o[k] = int64(r.Uint64())
	}
	var v [rngLen]int64
	for k := 335; k <= rngLen; k++ {
		v[941-k] = o[k] - o[k-rngTap]
	}
	for k := 274; k <= 334; k++ {
		v[334-k] = o[k] - o[k-rngTap]
	}
	for k := 1; k <= rngTap; k++ {
		v[334-k] = o[k] - v[rngLen-k]
	}
	var chain Source // its vec holds the seed's chain values alone
	chain.fill(seed, &[rngLen]int64{})
	for i := range v {
		v[i] ^= chain.vec[i]
	}
	return &v
}

// Seed sets the state rand.NewSource(seed) starts from.
func (s *Source) Seed(seed int64) {
	s.fill(seed, cooked)
}

// fill is Seed with the XOR table as a parameter. Entry i of the state is
// the chain's values 21+3i, 22+3i and 23+3i, shifted 40, 20 and 0 bits and
// XORed together with tab[i]; the four chains hold four consecutive values
// and each steps four ahead, so one pass of three steps fills four entries.
func (s *Source) fill(seed int64, tab *[rngLen]int64) {
	s.tap, s.feed = 0, rngLen-rngTap
	seed %= mersenne
	if seed < 0 {
		seed += mersenne
	}
	if seed == 0 {
		seed = 89482311
	}
	x := uint64(seed)
	x0, x1, x2, x3 := mulMod(x, lehmerPow[0]), mulMod(x, lehmerPow[1]), mulMod(x, lehmerPow[2]), mulMod(x, lehmerPow[3])
	a := lehmerStep
	for i := 0; i < rngLen; i += 4 {
		y0, y1, y2, y3 := mulMod(x0, a), mulMod(x1, a), mulMod(x2, a), mulMod(x3, a)
		z0, z1, z2, z3 := mulMod(y0, a), mulMod(y1, a), mulMod(y2, a), mulMod(y3, a)
		s.vec[i] = int64(x0<<40^x1<<20^x2) ^ tab[i]
		s.vec[i+1] = int64(x3<<40^y0<<20^y1) ^ tab[i+1]
		s.vec[i+2] = int64(y2<<40^y3<<20^z0) ^ tab[i+2]
		if i+3 < rngLen {
			s.vec[i+3] = int64(z1<<40^z2<<20^z3) ^ tab[i+3]
		}
		x0, x1, x2, x3 = mulMod(z0, a), mulMod(z1, a), mulMod(z2, a), mulMod(z3, a)
	}
}

// Uint64 returns the next value of the stream, as math/rand's does.
func (s *Source) Uint64() uint64 {
	s.tap--
	if s.tap < 0 {
		s.tap += rngLen
	}
	s.feed--
	if s.feed < 0 {
		s.feed += rngLen
	}
	x := s.vec[s.feed] + s.vec[s.tap]
	s.vec[s.feed] = x
	return uint64(x)
}

// Int63 returns the next value of the stream without its top bit.
func (s *Source) Int63() int64 {
	return int64(s.Uint64() &^ (1 << 63))
}

// Skip advances the stream by n values, as n calls of Uint64 would. A step
// adds vec[tap] into vec[feed] with both indices one lower, and feed is
// 334 above tap or 273 below it, so the value a step reads was written 273
// steps earlier or not since the seed: a run of up to 273 steps that keeps
// both indices above 0 is one elementwise add of two disjoint ranges. At
// index 0 one ordinary step wraps.
func (s *Source) Skip(n int64) {
	for n > 0 {
		k := min(n, rngTap, int64(s.tap), int64(s.feed))
		if k == 0 {
			s.Uint64()
			n--
			continue
		}
		t, f := s.tap-int(k), s.feed-int(k)
		dst, src := s.vec[f:s.feed], s.vec[t:s.tap]
		src = src[:len(dst)]
		for i := range dst {
			dst[i] += src[i]
		}
		s.tap, s.feed = t, f
		n -= k
	}
}
