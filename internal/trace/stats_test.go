package trace

import (
	"math"
	"sort"
	"testing"
)

// Stats characterizes a trace's communication structure, the quantities
// trace-driven NoC studies report (packet-size mix, temporal burstiness,
// spatial concentration). The tests use them to pin the synthetic
// generators to their intended shapes.
type Stats struct {
	Packets     int
	Flits       int64
	OfferedRate float64 // flits/cycle/rank

	// SizeHistogram maps packet length (flits) → count.
	SizeHistogram map[int32]int

	// Burstiness is the coefficient of variation (σ/μ) of packet counts
	// over fixed time windows; ≈1 for Poisson, >1 for bursty traffic.
	Burstiness float64

	// UniquePairs counts distinct (src,dst) pairs; PairCoverage divides by
	// all possible ordered pairs.
	UniquePairs  int
	PairCoverage float64

	// TopPairShare is the traffic share of the busiest 1% of pairs, a
	// hotspot measure.
	TopPairShare float64

	// ActiveRanks counts ranks that send at least one packet.
	ActiveRanks int
}

// ComputeStats analyzes a trace with the given burstiness window (cycles;
// 0 picks duration/1000).
func (t *Trace) ComputeStats(window int64) Stats {
	s := Stats{
		Packets:       len(t.Records),
		Flits:         t.TotalFlits(),
		OfferedRate:   t.OfferedRate(),
		SizeHistogram: make(map[int32]int),
	}
	if len(t.Records) == 0 {
		return s
	}
	if window <= 0 {
		window = t.Cycles / 1000
		if window <= 0 {
			window = 1
		}
	}

	// Windowed counts for burstiness.
	nWin := int(t.Cycles/window) + 1
	counts := make([]float64, nWin)
	pairCount := make(map[uint64]int)
	senders := make(map[int32]bool)
	for i := range t.Records {
		r := &t.Records[i]
		s.SizeHistogram[r.Flits]++
		w := int(r.Time / window)
		if w < nWin {
			counts[w]++
		}
		pairCount[uint64(r.Src)<<32|uint64(uint32(r.Dst))]++
		senders[r.Src] = true
	}
	mean, varsum := 0.0, 0.0
	for _, c := range counts {
		mean += c
	}
	mean /= float64(nWin)
	for _, c := range counts {
		varsum += (c - mean) * (c - mean)
	}
	if mean > 0 {
		s.Burstiness = math.Sqrt(varsum/float64(nWin)) / mean
	}

	s.UniquePairs = len(pairCount)
	all := int(t.Ranks) * (int(t.Ranks) - 1)
	if all > 0 {
		s.PairCoverage = float64(s.UniquePairs) / float64(all)
	}
	s.ActiveRanks = len(senders)

	// Busiest 1% of pairs.
	loads := make([]int, 0, len(pairCount))
	for _, c := range pairCount {
		loads = append(loads, c)
	}
	sort.Sort(sort.Reverse(sort.IntSlice(loads)))
	top := len(loads) / 100
	if top < 1 {
		top = 1
	}
	topSum := 0
	for _, c := range loads[:top] {
		topSum += c
	}
	s.TopPairShare = float64(topSum) / float64(len(t.Records))
	return s
}

func TestStatsEmptyTrace(t *testing.T) {
	tr := &Trace{Name: "empty", Ranks: 8, Cycles: 100}
	s := tr.ComputeStats(0)
	if s.Packets != 0 || s.Burstiness != 0 || s.ActiveRanks != 0 {
		t.Fatalf("empty trace produced stats %+v", s)
	}
}

func TestStatsSizeHistogram(t *testing.T) {
	tr, _ := GeneratePARSEC("dedup", 4000, 1)
	s := tr.ComputeStats(0)
	if len(s.SizeHistogram) != 2 {
		t.Fatalf("PARSEC size histogram has %d entries, want 2 (1-flit and 9-flit)", len(s.SizeHistogram))
	}
	if s.SizeHistogram[1] == 0 || s.SizeHistogram[9] == 0 {
		t.Fatalf("histogram missing a mode: %v", s.SizeHistogram)
	}
	if s.ActiveRanks != 64 {
		t.Fatalf("active ranks = %d, want 64", s.ActiveRanks)
	}
}

func TestStatsBurstinessOrdering(t *testing.T) {
	// CNS is a bulk-synchronous halo exchange — strongly bursty; a
	// uniformly spread trace over the same span must measure much lower.
	cns := GenerateCNS(50000, 1).ComputeStats(200)

	flat := &Trace{Name: "flat", Ranks: 1024, Cycles: 50000}
	for i := 0; i < 50000; i += 2 {
		flat.Records = append(flat.Records, Record{
			Time: int64(i), Src: int32(i % 1024), Dst: int32((i + 7) % 1024), Flits: 16,
		})
	}
	flatStats := flat.ComputeStats(200)
	if cns.Burstiness <= 2*flatStats.Burstiness {
		t.Fatalf("CNS burstiness %.2f should far exceed a flat trace's %.2f",
			cns.Burstiness, flatStats.Burstiness)
	}
}

func TestStatsPairStructure(t *testing.T) {
	// CNS pairs are only grid neighbors: coverage must be far below 1%
	// of all 1024×1023 pairs, and well-defined.
	s := GenerateCNS(30000, 1).ComputeStats(0)
	if s.PairCoverage > 0.01 {
		t.Fatalf("CNS pair coverage %.4f too broad for a stencil", s.PairCoverage)
	}
	if s.UniquePairs == 0 || s.TopPairShare <= 0 {
		t.Fatalf("degenerate pair stats: %+v", s)
	}
	// MOC reaches farther: more unique pairs than CNS per packet.
	moc := GenerateMOC(30000, 1).ComputeStats(0)
	if moc.UniquePairs <= s.UniquePairs {
		t.Fatalf("MOC unique pairs %d should exceed CNS %d (long-range characteristics)",
			moc.UniquePairs, s.UniquePairs)
	}
}
