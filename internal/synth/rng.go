package synth

import (
	"math/rand"
	"sync"
)

// source is math/rand's seeded generator (rand.NewSource), copied so the
// generator draws without an interface call per number and reads the raw
// 63-bit words geometric() compares. It yields the same numbers as
// rand.New(rand.NewSource(seed)) call for call: every stream the presets
// have ever produced, and every golden built on one, stays as it was.
//
// math/rand's source is an additive lagged-Fibonacci generator over
// rngLen words: each draw steps feed and tap down by one (wrapping) and
// returns vec[feed] += vec[tap], where tap sits rngTap words above feed.
// Seeding XORs a chain of the seed's Lehmer LCG (seedrand) with a fixed
// table that math/rand does not export; cooked recovers that table from
// seed 1's output.
//
// The copy draws a block at a time: fill advances the recurrence over
// the words from top down to 0 in place, in the order Uint64 would, and
// the draws are then read back out of vec. A block's step reads a word
// written at least rngTap steps earlier, so its steps carry no short
// dependence chain.
type source struct {
	vec [rngLen]uint64

	// i is the vec index of the next draw. Below zero the block is used
	// up, and i+rngLen is the top of the next: rngLen-1, except for the
	// first block after seeding.
	i int
}

const (
	rngLen   = 607
	rngTap   = 273
	rngMask  = 1<<63 - 1
	int32max = 1<<31 - 1
)

// seed initializes the source exactly as math/rand's rngSource.Seed does.
func (s *source) seed(seed int64) {
	chain(seed, &s.vec, cooked())
	// A freshly seeded rngSource has feed at rngLen-rngTap, so its first
	// block runs from the word just below down to 0.
	s.i = -rngTap - 1
}

// chain writes mask XOR seed's LCG chain, the words math/rand's Seed XORs
// with the cooked table, into vec. vec and mask may be the same array.
func chain(seed int64, vec, mask *[rngLen]uint64) {
	seed %= int32max
	if seed < 0 {
		seed += int32max
	}
	if seed == 0 {
		seed = 89482311
	}
	x := int32(seed)
	for i := -20; i < rngLen; i++ { // 20 warm-up steps
		x = seedrand(x)
		if i >= 0 {
			u := int64(x) << 40
			x = seedrand(x)
			u ^= int64(x) << 20
			x = seedrand(x)
			u ^= int64(x)
			vec[i] = mask[i] ^ uint64(u)
		}
	}
}

// seedrand is math/rand's seed LCG: x[n+1] = 48271 * x[n] mod (2³¹−1).
func seedrand(x int32) int32 {
	const (
		a = 48271
		q = 44488
		r = 3399
	)
	hi := x / q
	lo := x % q
	x = a*lo - r*hi
	if x < 0 {
		x += int32max
	}
	return x
}

// cooked is math/rand's seeding table, recovered once per process from
// rand.NewSource(1): its first rngLen draws write every word of the state
// once, so they are the state after those draws; stepping the recurrence
// backwards, newest step first, gives the seeded state, and XORing out
// seed 1's chain leaves the table.
var cooked = sync.OnceValue(func() *[rngLen]uint64 {
	src := rand.NewSource(1).(rand.Source64)
	var vec [rngLen]uint64
	feed := func(k int) int { return (2*rngLen - rngTap - 1 - k) % rngLen }
	for k := 0; k < rngLen; k++ {
		vec[feed(k)] = src.Uint64()
	}
	for k := rngLen - 1; k >= 0; k-- {
		f := feed(k)
		vec[f] -= vec[(f+rngTap)%rngLen]
	}
	chain(1, &vec, &vec)
	return &vec
})

// fill produces the next block of draws: vec[top], vec[top-1], …, vec[0],
// each the sum of itself and the word rngTap above it (mod rngLen), in
// that order, exactly as the sequential recurrence steps.
func (s *source) fill(top int) {
	for f := top; f >= 0; f-- {
		t := f + rngTap
		if t >= rngLen {
			t -= rngLen
		}
		s.vec[f] += s.vec[t]
	}
	s.i = top
}

// int63 is rand.Rand.Int63 over the seeded source: rngSource.Uint64 with
// the top bit cleared. It is kept small enough to inline into every draw
// site; the refill is the rare path.
func (s *source) int63() uint64 {
	if s.i < 0 {
		s.fill(s.i + rngLen)
	}
	x := s.vec[s.i]
	s.i--
	return x & rngMask
}

// float64 is rand.Rand.Float64, including its resample of a draw that
// rounds to 1.
func (s *source) float64() float64 {
again:
	f := float64(s.int63()) / (1 << 63)
	if f == 1 {
		goto again
	}
	return f
}

// intn is rand.Rand.Intn: a power-of-two n masks the draw; any other n
// rejects the draws in the incomplete top interval.
func (s *source) intn(n int) int {
	if n <= 0 {
		panic("synth: invalid argument to intn")
	}
	if n <= int32max {
		n := int32(n)
		if n&(n-1) == 0 {
			return int(s.int31() & (n - 1))
		}
		max := int32(1<<31 - 1 - (1<<31)%uint32(n))
		v := s.int31()
		for v > max {
			v = s.int31()
		}
		return int(v % n)
	}
	n64 := int64(n)
	if n64&(n64-1) == 0 {
		return int(int64(s.int63()) & (n64 - 1))
	}
	max := int64(1<<63 - 1 - (1<<63)%uint64(n64))
	v := int64(s.int63())
	for v > max {
		v = int64(s.int63())
	}
	return int(v % n64)
}

// int31 is rand.Rand.Int31.
func (s *source) int31() int32 { return int32(s.int63() >> 32) }

// firstDraw returns the smallest 63-bit draw x whose Float64 value,
// float64(x) / 2⁶³, satisfies pred, or 1<<63 if none does. pred must be
// monotone (false, then true) over [0, 1]; float64(x) never decreases as
// x grows, so the draws that satisfy it form one range ending at the top.
func firstDraw(pred func(f float64) bool) uint64 {
	lo, hi := uint64(0), uint64(1)<<63
	for lo < hi {
		mid := lo + (hi-lo)/2
		if pred(float64(mid) / (1 << 63)) {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return lo
}
