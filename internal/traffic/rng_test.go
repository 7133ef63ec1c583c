package traffic

import (
	"math"
	"math/rand"
	"testing"
)

// streamSeeds covers seed 0, a negative seed, the seed that math/rand folds
// onto 0 (seed % (2³¹−1) == 0), and seeds beyond 32 bits of either sign.
var streamSeeds = []int64{0, -1, 1<<31 - 1, 1 << 40, -1 << 50}

const streamDraws = 100_000

func newSource(seed int64) *rngSource {
	s := new(rngSource)
	s.Seed(seed)
	return s
}

func TestSourceMatchesMathRand(t *testing.T) {
	for _, seed := range streamSeeds {
		want, got := rand.NewSource(seed), newSource(seed)
		for i := 0; i < streamDraws; i++ {
			if w, g := want.Int63(), got.Int63(); w != g {
				t.Fatalf("seed %d: Int63 draw %d = %d, want %d", seed, i, g, w)
			}
		}
		want64 := rand.NewSource(seed).(rand.Source64)
		got = newSource(seed)
		for i := 0; i < streamDraws; i++ {
			if w, g := want64.Uint64(), got.Uint64(); w != g {
				t.Fatalf("seed %d: Uint64 draw %d = %d, want %d", seed, i, g, w)
			}
		}
	}
}

// TestRandOverSourceMatchesMathRand reads the source the way Pattern.Dest
// does, through rand.New: Intn takes the Int31n path below 2³¹ (masked for
// powers of two, rejection-sampled otherwise) and the Int63n path above.
func TestRandOverSourceMatchesMathRand(t *testing.T) {
	bounds := []int{1, 2, 7, 64, 1000, 3135, 1<<31 - 1, 1<<40 + 3}
	for _, seed := range streamSeeds {
		want, got := rand.New(rand.NewSource(seed)), rand.New(newSource(seed))
		for i := 0; i < streamDraws; i++ {
			b := bounds[i%len(bounds)]
			if w, g := want.Intn(b), got.Intn(b); w != g {
				t.Fatalf("seed %d: Intn(%d) draw %d = %d, want %d", seed, b, i, g, w)
			}
		}
		for i := 0; i < streamDraws; i++ {
			if w, g := want.Float64(), got.Float64(); w != g {
				t.Fatalf("seed %d: Float64 draw %d = %v, want %v", seed, i, g, w)
			}
		}
		for i := 0; i < streamDraws/100; i++ {
			w, g := want.Perm(100), got.Perm(100)
			for j := range w {
				if w[j] != g[j] {
					t.Fatalf("seed %d: Perm %d differs at %d: %d, want %d", seed, i, j, g[j], w[j])
				}
			}
		}
	}
}

// redrawNext sets s so that its next draw is 2⁶³−1, which float64 rounds to
// 2⁶³: rand.Float64 sees exactly 1 and draws again.
func redrawNext(s *rngSource) {
	s.vec[(s.tap+rngLen-1)%rngLen] = 0
	s.vec[(s.feed+rngLen-1)%rngLen] = rngMask
}

// TestWindowIsExact: a window holds exactly the draws whose Float64 value
// is in [prob, 1), so scan stops where the per-node Float64 loop injects.
func TestWindowIsExact(t *testing.T) {
	f := func(v uint64) float64 { return float64(v) / (1 << 63) }
	for _, prob := range []float64{math.Inf(-1), -1, 0, 1e-300, 0x1p-60, 0.01 / 16, 1.0 / 3, 0.45, 1 - 0x1p-53, 1, 2, math.NaN()} {
		w := newWindow(prob)
		in := func(v uint64) bool { return f(v) >= prob && f(v) < 1 }
		for _, v := range []uint64{0, 1, w.lo - 1, w.lo, w.lo + 1, w.lo + w.n - 1, w.lo + w.n, 1<<63 - 1} {
			if v >= 1<<63 {
				continue // w.lo−1 wrapped at w.lo == 0
			}
			if got := v-w.lo < w.n; got != in(v) {
				t.Errorf("prob %v: draw %d in window %v, Float64 %v in [prob, 1) %v", prob, v, got, f(v), in(v))
			}
		}
	}
}
