package sim

import "math/rand"

// Seeded streams (DESIGN.md §16).
//
// Every seeded stream in the simulator is math/rand's additive
// lagged-Fibonacci generator: 607 words of state, where draw k (from 1)
// writes vec[(334−k) mod 607] += vec[(607−k) mod 607] and returns the sum.
// Seeding fills word i with (x[3i+21]<<40) ^ (x[3i+22]<<20) ^ x[3i+23] ^
// cooked[i], where x[n] = s·48271ⁿ mod (2³¹−1) and s is the normalized
// seed. Filling all 607 words costs 1,841 LCG steps, yet a thread draws a
// handful of numbers. NewRand returns the same stream at a cost that grows
// with the draws made: the first rngTap draws read only initial words, so
// each is a pure function of (s, k), and the state is built on the draw
// after them.

const (
	rngLen   = 607       // words of lagged-Fibonacci state
	rngTap   = 273       // lag of the tap read behind the feed slot
	rngMask  = 1<<63 - 1 // Int63 keeps the low 63 bits of a draw
	int32max = 1<<31 - 1 // modulus of the seed LCG, a Mersenne prime
	lcgMul   = 48271     // multiplier of the seed LCG
)

// lcgPow[i] is 48271^(3i+21) mod (2³¹−1): it takes a normalized seed to
// the first of the three LCG values that word i packs.
var lcgPow = func() (p [rngLen]uint64) {
	x := uint64(1)
	for n := 0; n < 21; n++ {
		x = mulMod(x, lcgMul)
	}
	for i := range p {
		p[i] = x
		x = mulMod(mulMod(mulMod(x, lcgMul), lcgMul), lcgMul)
	}
	return p
}()

// cooked is the constant table math/rand XORs into its initial words.
var cooked = deriveCooked()

// deriveCooked recovers cooked from 607 draws of math/rand's own source,
// so math/rand stays the one definition of the stream. For k = 274…607
// draw k's tap slot holds draw k−273's output and its feed slot is still
// initial, which gives words 0…60 and 334…606; then draw k ≤ 273 is the
// sum of two initial words, one of them already known, which gives words
// 61…333. XOR with the reference seed's LCG part leaves the table.
func deriveCooked() (c [rngLen]int64) {
	const ref = 1
	src := rand.NewSource(ref).(rand.Source64)
	var out [rngLen + 1]int64 // out[k] is draw k
	for k := 1; k <= rngLen; k++ {
		out[k] = int64(src.Uint64())
	}
	for k := rngTap + 1; k <= rngLen; k++ {
		c[(2*rngLen-rngTap-k)%rngLen] = out[k] - out[k-rngTap]
	}
	for k := 1; k <= rngTap; k++ {
		c[rngLen-rngTap-k] = out[k] - c[rngLen-k]
	}
	for i := range c {
		c[i] ^= lcgWord(ref, i)
	}
	return c
}

// mulMod returns a·b mod (2³¹−1) for a, b < 2³¹−1, folding the high bits
// down (2³¹ ≡ 1) instead of dividing.
func mulMod(a, b uint64) uint64 {
	p := a * b
	r := p&int32max + p>>31
	if r >= int32max {
		r -= int32max
	}
	return r
}

// lcgWord returns the LCG part of initial word i for normalized seed s.
func lcgWord(s uint64, i int) int64 {
	x := mulMod(s, lcgPow[i])
	u := int64(x) << 40
	x = mulMod(x, lcgMul)
	u ^= int64(x) << 20
	x = mulMod(x, lcgMul)
	return u ^ int64(x)
}

// NewRand returns a generator whose every draw equals that of math/rand's
// seeded source for seed, so swapping it in changes no simulated value.
// It makes two allocations; the 607-word state is allocated on draw 274,
// which most streams never reach.
func NewRand(seed int64) *rand.Rand {
	s := new(source)
	s.Seed(seed)
	return rand.New(s)
}

// source is the rand.Source64 behind NewRand.
type source struct {
	seed      uint64         // normalized seed, in [1, 2³¹−1)
	drawn     int            // draws made before the state is live, ≤ rngTap
	live      bool           // vec, tap and feed hold the generator state
	vec       *[rngLen]int64 // allocated on first use, reused after Seed
	tap, feed int
}

// Seed restarts the stream for seed, normalized as math/rand does.
func (s *source) Seed(seed int64) {
	seed %= int32max
	if seed < 0 {
		seed += int32max
	}
	if seed == 0 {
		seed = 89482311
	}
	s.seed = uint64(seed)
	s.drawn = 0
	s.live = false
}

// Int63 returns the next draw's low 63 bits.
func (s *source) Int63() int64 { return int64(s.Uint64() & rngMask) }

// Uint64 returns the next draw.
func (s *source) Uint64() uint64 {
	if !s.live {
		if s.drawn < rngTap {
			// Neither slot draw k reads has been written yet.
			s.drawn++
			return uint64(s.word(rngLen-rngTap-s.drawn) + s.word(rngLen-s.drawn))
		}
		s.materialize()
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
	return uint64(x)
}

// word returns initial word i.
func (s *source) word(i int) int64 { return lcgWord(s.seed, i) ^ cooked[i] }

// materialize builds the state math/rand's source holds after rngTap
// draws: the initial words with those draws' feed writes replayed.
func (s *source) materialize() {
	if s.vec == nil {
		s.vec = new([rngLen]int64)
	}
	for i := range s.vec {
		s.vec[i] = s.word(i)
	}
	for k := 1; k <= rngTap; k++ {
		s.vec[rngLen-rngTap-k] += s.vec[rngLen-k]
	}
	s.tap, s.feed = rngLen-rngTap, rngLen-2*rngTap
	s.live = true
}
