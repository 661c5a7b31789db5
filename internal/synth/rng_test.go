package synth

import (
	"math/rand"
	"testing"
)

// sourceSeeds covers math/rand's seed folding: mod 2³¹−1, negative
// seeds, the zero seed's substitute, and seeds that fold onto it.
var sourceSeeds = []int64{1, 7, 42, 0, -1, -5, 1 << 33, 1<<31 - 1, 1<<31 + 2,
	-(1<<31 - 1), 89482311, 1<<63 - 1, -1 << 63}

// The native source must return what rand.New(rand.NewSource(seed))
// returns, call for call, for every call the generator makes.
func TestSourceMatchesMathRand(t *testing.T) {
	const calls = 100000
	for _, seed := range sourceSeeds {
		want := rand.New(rand.NewSource(seed))
		var got source
		got.seed(seed)
		for i := 0; i < calls; i++ {
			var g, w int64
			switch i % 8 {
			case 0, 1, 2:
				gf, wf := got.float64(), want.Float64()
				if gf != wf {
					t.Fatalf("seed %d call %d: Float64 %v, math/rand %v", seed, i, gf, wf)
				}
				continue
			case 3:
				g, w = int64(got.intn(64)), int64(want.Intn(64))
			case 4:
				g, w = int64(got.intn(1536)), int64(want.Intn(1536))
			case 5:
				g, w = int64(got.intn(4)), int64(want.Intn(4))
			case 6:
				g, w = int64(got.intn(1<<40+3)), int64(want.Intn(1<<40+3))
			case 7:
				g, w = int64(got.int63()), want.Int63()
			}
			if g != w {
				t.Fatalf("seed %d call %d: %d, math/rand %d", seed, i, g, w)
			}
		}
	}
}

// replay is a rand.Source64 that returns planted words, so math/rand's
// own arithmetic can judge the native source on draws a seeded stream
// practically never produces.
type replay []uint64

func (r *replay) Uint64() uint64 {
	x := (*r)[0]
	*r = (*r)[1:]
	return x
}
func (r *replay) Int63() int64 { return int64(r.Uint64() & rngMask) }
func (r *replay) Seed(int64)   {}

// plant makes words the source's next draws.
func plant(s *source, words []uint64) {
	for k, w := range words {
		s.vec[len(words)-1-k] = w
	}
	s.i = len(words) - 1
}

// Draws at the edges: Float64 values that round to 1 are redrawn, and
// Intn rejects draws in the top, incomplete interval.
func TestSourceEdgeDraws(t *testing.T) {
	words := []uint64{
		1<<63 - 1, 1<<63 - 512, 1<<63 - 513, // Float64: two redraws, then a keep
		1 << 63, 0,
		0x7fff_ffff_ffff_ffff, 0x7ffe_aaaa_0000_0000, // Intn(1536): rejected, kept
		0xffff_ffff_ffff_ffff, 5 << 32, // Intn(64): masked
	}
	var got source
	got.seed(1)
	plant(&got, words)
	r := replay(words)
	want := rand.New(&r)
	if g, w := got.float64(), want.Float64(); g != w {
		t.Errorf("Float64 at the rounding edge: %v, math/rand %v", g, w)
	}
	if g, w := got.float64(), want.Float64(); g != w {
		t.Errorf("Float64 of a top-bit word: %v, math/rand %v", g, w)
	}
	if g, w := got.float64(), want.Float64(); g != w {
		t.Errorf("Float64 of zero: %v, math/rand %v", g, w)
	}
	if g, w := got.intn(1536), want.Intn(1536); g != w {
		t.Errorf("Intn(1536) past a rejected draw: %d, math/rand %d", g, w)
	}
	if g, w := got.intn(64), want.Intn(64); g != w {
		t.Errorf("Intn(64): %d, math/rand %d", g, w)
	}
	if g, w := got.intn(64), want.Intn(64); g != w {
		t.Errorf("Intn(64): %d, math/rand %d", g, w)
	}
	if got.i != -1 || len(r) != 0 {
		t.Errorf("draws left: native %d, math/rand %d", got.i+1, len(r))
	}
}

// geometricRef is the Float64 loop geometric() replaces.
func geometricRef(r *rand.Rand, mean float64) int {
	d := 0
	for r.Float64() > 1/mean && d < maxDepDist {
		d++
	}
	return d
}

// geometric() must return the Float64 loop's distance and consume exactly
// its draws, at the cap too: after every call the two streams must still
// agree on the next draw.
func TestGeometricMatchesFloatLoop(t *testing.T) {
	capped := 0
	for _, mean := range []float64{1, 1.5, 6, 8, 100, 1e9} {
		for _, seed := range []int64{1, 7} {
			p := Sharing()
			p.Seed = seed
			p.MeanDepDist = mean
			g := New(p).(*gen)
			ref := rand.New(rand.NewSource(seed))
			for i := 0; i < 20000; i++ {
				d, w := g.geometric(), geometricRef(ref, mean)
				if d != w {
					t.Fatalf("mean %v seed %d call %d: distance %d, Float64 loop %d", mean, seed, i, d, w)
				}
				if d == maxDepDist {
					capped++
				}
				if x, y := g.rng.int63(), ref.Int63(); int64(x) != y {
					t.Fatalf("mean %v seed %d call %d: draws consumed differ", mean, seed, i)
				}
			}
		}
	}
	if capped == 0 {
		t.Error("no distance reached the cap")
	}
}

// The integer cuts sit exactly where the Float64 comparisons flip. Plant
// the words on either side of each cut: geoCut-1 and geoCut must stop and
// continue the walk as the Float64 loop does, and oneCut-1 and oneCut be
// kept and redrawn as Float64 keeps and redraws them.
func TestGeometricCuts(t *testing.T) {
	for _, mean := range []float64{6, 8} {
		p := Sharing()
		p.MeanDepDist = mean
		g := New(p).(*gen)
		walks := [][]uint64{
			{g.geoCut - 1},
			{g.geoCut, g.geoCut, g.geoCut - 1},
			{oneCut, g.geoCut, oneCut - 1, 0},
			{oneCut - 1, oneCut, 0},
		}
		for _, words := range walks {
			plant(&g.rng, words)
			r := replay(words)
			want := geometricRef(rand.New(&r), mean)
			if got := g.geometric(); got != want || g.rng.i != -1 || len(r) != 0 {
				t.Errorf("mean %v words %x: distance %d with %d draws left, Float64 loop %d with %d",
					mean, words, got, g.rng.i+1, want, len(r))
			}
		}
	}
}
