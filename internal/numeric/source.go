package numeric

import "math/rand"

// math/rand's generator (rng.go) is an additive lagged-Fibonacci register of
// rngLen words, x[n] = x[n-rngLen] + x[n-rngTap], seeded word by word from
// the Park–Miller LCG y ← 48271·y mod (2³¹−1): word i is three consecutive
// LCG outputs (y₂₁₊₃ᵢ, y₂₂₊₃ᵢ, y₂₃₊₃ᵢ) packed at bit 40, 20 and 0, xor a
// fixed table. rand.NewSource runs all 1,841 LCG steps and fills the register
// before the first draw, and a start tree then takes about 30 draws.
// NewSource gives the same outputs but computes a seeded word only when a
// draw reads it: the first rngTap draws read seeded words only, and an LCG
// output yₙ is one product y₀·48271ⁿ from a table of powers.
const (
	rngLen  = 607
	rngTap  = 273
	rngMask = 1<<63 - 1
	lcgMod  = 1<<31 - 1
	lcgMul  = 48271
)

var (
	// lcgPow[n] is 48271ⁿ mod (2³¹−1).
	lcgPow [3*rngLen + 21]uint64
	// rngCooked is math/rand's seeding table, read back from rand.NewSource(1).
	rngCooked [rngLen]uint64
)

func init() {
	lcgPow[0] = 1
	for n := 1; n < len(lcgPow); n++ {
		lcgPow[n] = mulMod(lcgPow[n-1], lcgMul)
	}
	// Draw k of a fresh register adds word rngLen-rngTap-1-k (the feed, which
	// keeps the sum) and word rngLen-1-k (the tap), indices mod rngLen. From
	// draw rngTap on, the tap is the word draw k-rngTap fed, so the first
	// rngLen outputs of seed 1 give every seeded word back: the feeds of draws
	// rngTap..rngLen-1 by difference with an earlier output, then the feeds of
	// draws 0..rngTap-1 by difference with those.
	src := rand.NewSource(1).(rand.Source64)
	var o, v [rngLen]uint64
	for k := range o {
		o[k] = src.Uint64()
	}
	for k := rngTap; k < rngLen; k++ {
		v[(2*rngLen-rngTap-1-k)%rngLen] = o[k] - o[k-rngTap]
	}
	for k := 0; k < rngTap; k++ {
		v[rngLen-rngTap-1-k] = o[k] - v[rngLen-1-k]
	}
	for i := range v {
		rngCooked[i] = v[i] ^ lcgWord(1, i)
	}
}

// mulMod returns a·b mod (2³¹−1) for a, b < 2³¹ by Mersenne folding.
func mulMod(a, b uint64) uint64 {
	p := a * b
	p = p&lcgMod + p>>31
	p = p&lcgMod + p>>31
	if p >= lcgMod {
		p -= lcgMod
	}
	return p
}

// lcgWord packs the three LCG outputs of register word i from seed y₀.
func lcgWord(y0 uint64, i int) uint64 {
	n := 3*i + 21
	return mulMod(y0, lcgPow[n])<<40 ^ mulMod(y0, lcgPow[n+1])<<20 ^ mulMod(y0, lcgPow[n+2])
}

// source is math/rand's generator with the register built at its first
// draw that reads a word an earlier draw wrote.
type source struct {
	y0        uint64          // normalised seed
	draws     int             // draws taken while the register is virtual; rngTap+1 once built
	tap, feed int             // math/rand's register indices once built
	vec       *[rngLen]uint64 // the register; kept across Seed
}

// NewSource returns a generator whose outputs, for every seed and every
// method, are those of rand.NewSource(seed). Seeding costs nothing up front:
// the first rngTap draws compute the two seeded words they add, and the
// draw after them builds the register, so a caller that takes a few dozen
// draws (a start tree) never pays for the 607-word seeding. Once a register
// exists, a reseeded stream's virtual draws keep the words they compute in
// it, so its build computes only the rngLen-2·rngTap words no draw read.
func NewSource(seed int64) rand.Source64 {
	s := &source{}
	s.Seed(seed)
	return s
}

// Seed resets the generator to seed, normalised the way math/rand does.
func (s *source) Seed(seed int64) {
	seed %= lcgMod
	if seed < 0 {
		seed += lcgMod
	}
	if seed == 0 {
		seed = 89482311
	}
	s.y0 = uint64(seed)
	s.draws = 0
}

// seeded returns register word i as seeding leaves it.
func (s *source) seeded(i int) uint64 { return lcgWord(s.y0, i) ^ rngCooked[i] }

// Uint64 returns the next 64-bit output.
func (s *source) Uint64() uint64 {
	if s.draws < rngTap {
		k := s.draws
		s.draws++
		if s.vec != nil {
			return s.keep(k)
		}
		return s.seeded(rngLen-rngTap-1-k) + s.seeded(rngLen-1-k)
	}
	if s.draws == rngTap {
		s.build()
	}
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
	return x
}

// keep takes virtual draw k into a register kept from an earlier seed: the
// draw adds seeded word rngLen-1-k (the tap) into seeded word
// rngLen-rngTap-1-k (the feed), and both are stored as math/rand's draw
// leaves them.
func (s *source) keep(k int) uint64 {
	feed, tap := rngLen-rngTap-1-k, rngLen-1-k
	t := s.seeded(tap)
	s.vec[tap], s.vec[feed] = t, s.seeded(feed)+t
	return s.vec[feed]
}

// build materialises the register as math/rand's stands after rngTap draws:
// every word seeded, and each of those draws' feed words holding its sum.
// The virtual draws kept words rngLen-2·rngTap and up in it already, unless
// this is the source's first register: then they are taken again.
func (s *source) build() {
	if s.vec == nil {
		s.vec = new([rngLen]uint64)
		for k := 0; k < rngTap; k++ {
			s.keep(k)
		}
	}
	for i := 0; i < rngLen-2*rngTap; i++ {
		s.vec[i] = s.seeded(i)
	}
	s.tap, s.feed = rngLen-rngTap, rngLen-2*rngTap
	s.draws = rngTap + 1
}

// Int63 returns a non-negative 63-bit output, as math/rand's does.
func (s *source) Int63() int64 { return int64(s.Uint64() & rngMask) }
