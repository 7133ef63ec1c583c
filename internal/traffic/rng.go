package traffic

import "math/rand"

// rngSource is math/rand's additive lagged-Fibonacci source,
// x[n] = x[n-607] + x[n-273] mod 2⁶⁴, copied so that Generator.Drive can
// step the stream inline rather than through the rand.Source interface.
// Seed rebuilds the state from rand.NewSource's own output, so the stream is
// rand.NewSource(seed)'s draw for draw (fault.Root's, which the published
// results come from).
type rngSource struct {
	tap, feed int
	vec       [rngLen]int64
}

const (
	rngLen  = 607
	rngTap  = 273
	rngMask = 1<<63 - 1
)

var _ rand.Source64 = (*rngSource)(nil)

// Seed implements rand.Source. Each of the first rngLen draws of
// rand.NewSource(seed) writes its output into a distinct slot and leaves
// tap and feed where seeding put them, so those outputs are the state after
// rngLen draws; running the recurrence backwards rngLen steps from there
// recovers the seeded state.
func (s *rngSource) Seed(seed int64) {
	ref := rand.NewSource(seed).(rand.Source64)
	s.tap, s.feed = 0, rngLen-rngTap
	for i := 0; i < rngLen; i++ {
		s.feed = (s.feed + rngLen - 1) % rngLen
		s.vec[s.feed] = int64(ref.Uint64())
	}
	for i := 0; i < rngLen; i++ {
		s.vec[s.feed] -= s.vec[s.tap]
		s.tap, s.feed = (s.tap+1)%rngLen, (s.feed+1)%rngLen
	}
}

// Int63 implements rand.Source.
func (s *rngSource) Int63() int64 { return int64(s.Uint64() & rngMask) }

// Uint64 implements rand.Source64.
func (s *rngSource) Uint64() uint64 {
	if s.tap--; s.tap < 0 {
		s.tap += rngLen
	}
	if s.feed--; s.feed < 0 {
		s.feed += rngLen
	}
	x := s.vec[s.feed] + s.vec[s.tap]
	s.vec[s.feed] = x
	return uint64(x)
}

// window is the run [lo, lo+n) of Int63 draws whose rand.Float64 value
// lies in [prob, 1): the draws of nodes that do not inject.
type window struct {
	prob  float64
	lo, n uint64
}

func newWindow(prob float64) window {
	// Float64 is float64(v)/2⁶³, non-decreasing in v, and 1 from 2⁶³−512
	// up; lo is the least v at or above prob (one when none is).
	const one = 1<<63 - 512
	lo := uint64(one)
	for step := uint64(1 << 62); step > 0; step >>= 1 {
		if lo >= step && float64(lo-step)/(1<<63) >= prob {
			lo -= step
		}
	}
	return window{prob, lo, one - lo}
}

// scan takes one Int63 draw for each index from i up to end and returns
// the first index whose draw is outside w — a node that injects, or a draw
// that Float64 would discard and draw again — with that draw. It returns
// end when no draw stops it.
func (s *rngSource) scan(i, end int, w window) (int, uint64) {
	for i < end {
		// tap and feed fall by one a draw and wrap from 0 to rngLen: the
		// draws up to the next wrap are one run over two slices.
		if s.tap == 0 {
			s.tap = rngLen
		}
		if s.feed == 0 {
			s.feed = rngLen
		}
		m := min(s.tap, s.feed, end-i)
		feed, tap := s.vec[s.feed-m:s.feed], s.vec[s.tap-m:s.tap]
		for k := len(feed) - 1; k >= 0; k-- {
			x := feed[k] + tap[k]
			feed[k] = x
			if v := uint64(x) & rngMask; v-w.lo >= w.n {
				s.tap, s.feed = s.tap-(m-k), s.feed-(m-k)
				return i + m - 1 - k, v
			}
		}
		s.tap, s.feed = s.tap-m, s.feed-m
		i += m
	}
	return end, 0
}
