package trace

import (
	"fmt"

	"heteroif/internal/network"
)

// Replayer injects a trace into a network. Packets enter the source queue
// at their trace time regardless of congestion ("all packets are injected
// according to the trace time even if queuing occurs", Sec. 7.2), so
// queueing shows up as latency rather than as lost offered load.
type Replayer struct {
	Trace *Trace
	Net   *network.Network
	// Map translates rank → node. It must cover [0, Trace.Ranks).
	Map []network.NodeID
	// Speedup compresses trace time: injection time = Time/Speedup. The
	// Fig. 13/15 injection-rate sweeps scale the same trace to different
	// offered loads. Zero means 1.0.
	Speedup float64

	// MeasureFrom is the warm-up boundary: offered-load accounting starts
	// at this cycle so it compares like-for-like with the statistics
	// collector's measurement window.
	MeasureFrom int64

	idx int
	// offeredFlits counts flits actually offered (rank-colocated sends on
	// wrapped mappings are skipped).
	offeredFlits int64
}

// NewReplayer validates the mapping and returns a replayer.
func NewReplayer(t *Trace, net *network.Network, m []network.NodeID, speedup float64) (*Replayer, error) {
	if len(m) < int(t.Ranks) {
		return nil, fmt.Errorf("trace: mapping covers %d ranks, trace %s needs %d", len(m), t.Name, t.Ranks)
	}
	for r, n := range m[:t.Ranks] {
		if int(n) < 0 || int(n) >= len(net.Nodes) {
			return nil, fmt.Errorf("trace: rank %d maps to invalid node %d", r, n)
		}
	}
	for i := range t.Records {
		if f := t.Records[i].Flits; f <= 0 || f > network.MaxPacketLength {
			return nil, fmt.Errorf("trace %s: record %d has length %d, outside [1,%d] flits", t.Name, i, f, network.MaxPacketLength)
		}
	}
	if speedup <= 0 {
		speedup = 1
	}
	return &Replayer{Trace: t, Net: net, Map: m, Speedup: speedup}, nil
}

// ActualOfferedRate returns the load actually offered inside the
// measurement window ending at cycle `now`: rank-colocated records
// (possible when the mapping wraps) and warm-up traffic are excluded, so
// saturation checks compare like with like.
func (r *Replayer) ActualOfferedRate(now int64, n int) float64 {
	window := now - r.MeasureFrom
	if window <= 0 || n == 0 {
		return 0
	}
	return float64(r.offeredFlits) / float64(window) / float64(n)
}

// Drive implements the per-cycle injection callback for network.Run.
func (r *Replayer) Drive(now int64) {
	recs := r.Trace.Records
	for r.idx < len(recs) {
		rec := &recs[r.idx]
		when := int64(float64(rec.Time) / r.Speedup)
		if when > now {
			return
		}
		src, dst := r.Map[rec.Src], r.Map[rec.Dst]
		if src != dst {
			p := r.Net.NewPacket(src, dst, int(rec.Flits), now)
			p.Class = network.Class(rec.Class)
			r.Net.Offer(p)
			if now >= r.MeasureFrom {
				r.offeredFlits += int64(rec.Flits)
			}
		}
		r.idx++
	}
}

// NextInjection reports the earliest cycle ≥ now at which Drive can offer
// a packet — the compressed time of the next unoffered record — or -1 once
// the trace is exhausted. It implements network.RunWith's fast-forward
// contract: trace gaps (common in application traces, Sec. 7.2) are skipped
// without changing results, because Drive stamps CreatedAt with the cycle
// at which the record becomes due either way.
func (r *Replayer) NextInjection(now int64) int64 {
	if r.idx >= len(r.Trace.Records) {
		return -1
	}
	when := int64(float64(r.Trace.Records[r.idx].Time) / r.Speedup)
	if when < now {
		return now
	}
	return when
}
