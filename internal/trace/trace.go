// Package trace provides the trace-driven workload substrate of Sec. 7.2:
// an in-memory packet-trace type, a replayer that injects packets at their
// trace times ("even if queuing occurs"), and synthetic
// generators standing in for the paper's external trace artifacts:
//
//   - Netrace PARSEC traces [33]: 64-rank CMP coherence traffic with the
//     documented bimodal packet sizes (8-byte/1-flit control+request
//     packets and 72-byte/9-flit data packets). We model each workload as
//     a request–reply memory-system process with per-workload rate,
//     locality and burstiness profiles.
//   - NERSC/dumpi Hopper traces [1, 12]: 1024-rank MPI communication, with
//     CNS as a 3D compressible Navier–Stokes halo exchange (bulk
//     nearest-neighbor messages per timestep) and MOC as a 3D
//     method-of-characteristics sweep (pipelined wavefront plus long-range
//     angular messages), each generating more than one million packets.
//
// The substitution preserves what the experiments consume: a fixed packet
// stream (time, source, destination, length) replayed identically against
// every network under comparison. See DESIGN.md §4.
package trace

import (
	"cmp"
	"fmt"
	"math"
	"math/rand"
	"slices"

	"heteroif/internal/network"
)

// Record is one packet in a trace. Times are in cycles; Src/Dst are ranks
// (not nodes — the replayer maps ranks onto network nodes).
type Record struct {
	Time  int64
	Src   int32
	Dst   int32
	Flits int32
	Class uint8
}

// Trace is a named, time-sorted packet stream over a rank space.
type Trace struct {
	Name    string
	Ranks   int32
	Cycles  int64 // trace duration
	Records []Record
}

// TotalFlits returns the number of flits in the trace.
func (t *Trace) TotalFlits() int64 {
	var n int64
	for i := range t.Records {
		n += int64(t.Records[i].Flits)
	}
	return n
}

// OfferedRate returns the trace's average offered load in
// flits/cycle/rank.
func (t *Trace) OfferedRate() float64 {
	if t.Cycles == 0 || t.Ranks == 0 {
		return 0
	}
	return float64(t.TotalFlits()) / float64(t.Cycles) / float64(t.Ranks)
}

// maxSpanPerRecord bounds the counting sort's histogram: 4 B per cycle of
// span may cost at most what the records themselves do (24 B each).
const maxSpanPerRecord = 6

// sortRecords sorts the records by Time, ties in generation order — the
// order a stable comparison sort gives. Generated times are small integers,
// so this is a counting sort, linear in records + span; its scratch is 4 B
// per record plus 4 B per cycle of span, never a second []Record. Records
// already in order return without allocating; a span too sparse to count
// takes the comparison sort.
func (t *Trace) sortRecords() {
	recs := t.Records
	if len(recs) < 2 {
		return
	}
	lo, hi := recs[0].Time, recs[0].Time
	sorted := true
	for i := 1; i < len(recs); i++ {
		tm := recs[i].Time
		if tm < recs[i-1].Time {
			sorted = false
		}
		lo, hi = min(lo, tm), max(hi, tm)
	}
	if sorted {
		return
	}
	span := uint64(hi) - uint64(lo) // exact even where hi-lo overflows int64
	if span/maxSpanPerRecord >= uint64(len(recs)) || uint64(len(recs)) > math.MaxUint32 {
		slices.SortStableFunc(recs, func(a, b Record) int { return cmp.Compare(a.Time, b.Time) })
		return
	}
	// next[k] is where the next record of cycle lo+k goes.
	next := make([]uint32, span+1)
	for i := range recs {
		next[recs[i].Time-lo]++
	}
	sum := uint32(0)
	for k, c := range next {
		next[k] = sum
		sum += c
	}
	dest := make([]uint32, len(recs))
	for i := range recs {
		k := recs[i].Time - lo
		dest[i] = next[k]
		next[k]++
	}
	// Apply the permutation in place, one cycle of it at a time: the
	// record in hand goes to its destination and the one it displaces is
	// picked up, until the cycle closes at i.
	for i := range recs {
		if dest[i] == uint32(i) {
			continue
		}
		r, j := recs[i], dest[i]
		for j != uint32(i) {
			r, recs[j] = recs[j], r
			j, dest[j] = dest[j], j
		}
		recs[i] = r
	}
}

// Validate checks rank bounds and time ordering.
func (t *Trace) Validate() error {
	last := int64(0)
	for i := range t.Records {
		r := &t.Records[i]
		if r.Src < 0 || r.Src >= t.Ranks || r.Dst < 0 || r.Dst >= t.Ranks {
			return fmt.Errorf("trace %s: record %d has rank out of range [0,%d): src=%d dst=%d", t.Name, i, t.Ranks, r.Src, r.Dst)
		}
		if r.Src == r.Dst {
			return fmt.Errorf("trace %s: record %d has src == dst == %d", t.Name, i, r.Src)
		}
		if r.Flits <= 0 {
			return fmt.Errorf("trace %s: record %d has non-positive length %d", t.Name, i, r.Flits)
		}
		if r.Flits > network.MaxPacketLength {
			return fmt.Errorf("trace %s: record %d has length %d, more than the %d flits a packet can hold", t.Name, i, r.Flits, network.MaxPacketLength)
		}
		if r.Time < last {
			return fmt.Errorf("trace %s: record %d out of time order (%d < %d)", t.Name, i, r.Time, last)
		}
		last = r.Time
	}
	return nil
}

// rng returns a deterministic source for a generator.
func rng(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }
