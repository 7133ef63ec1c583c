package network

import (
	"fmt"
	"slices"
	"sort"
	"strings"
)

// Snapshot is a point-in-time congestion summary, for debugging and test
// failure messages.
type Snapshot struct {
	Cycle          int64
	FlitsBuffered  int64
	FlitsByKind    map[LinkKind]int64 // buffered at inputs fed by this kind
	FlitsInLinks   int64
	RestrictedPkts int
	ActivePkts     int
	QueuedPkts     int
	// TopNodes lists the most congested routers (buffered flit counts).
	TopNodes []NodeOccupancy
}

// NodeOccupancy is one router's buffered-flit count.
type NodeOccupancy struct {
	Node  NodeID
	Flits int
}

// TakeSnapshot walks the network state. It is O(network) and intended for
// debugging, not per-cycle use.
func (net *Network) TakeSnapshot(topN int) Snapshot {
	s := Snapshot{
		Cycle:       net.Now,
		FlitsByKind: make(map[LinkKind]int64),
		QueuedPkts:  net.QueuedPackets(),
	}
	seen := make(map[uint64]bool)
	for _, r := range net.Nodes {
		occ := 0
		for _, in := range r.In {
			for v := range in.VCs {
				buf := &in.VCs[v].Buf
				n := buf.Len()
				occ += n
				s.FlitsBuffered += int64(n)
				s.FlitsByKind[in.Kind] += int64(n)
				for i := 0; i < n; i++ {
					p := net.Packet(buf.At(i).P)
					if !seen[p.ID] {
						seen[p.ID] = true
						s.ActivePkts++
						if p.Restricted {
							s.RestrictedPkts++
						}
					}
				}
			}
		}
		if occ > 0 {
			s.TopNodes = append(s.TopNodes, NodeOccupancy{Node: r.ID, Flits: occ})
		}
	}
	for _, l := range net.Links {
		s.FlitsInLinks += int64(l.InFlight())
	}
	sort.Slice(s.TopNodes, func(i, j int) bool { return s.TopNodes[i].Flits > s.TopNodes[j].Flits })
	if len(s.TopNodes) > topN {
		s.TopNodes = s.TopNodes[:topN]
	}
	return s
}

// DeadlockReport classifies every stalled input VC: whether it holds an
// output allocation (and what it is waiting on) or failed VC allocation.
// Used to debug routing deadlocks; the watchdog's error carries its first
// stalled VC and its totals (StallSummary).
func (net *Network) DeadlockReport(limit int) string {
	var b strings.Builder
	active, inactive := 0, 0
	for _, r := range net.Nodes {
		for ip, in := range r.In {
			for v := range in.VCs {
				vc := &in.VCs[v]
				if vc.Buf.Empty() {
					continue
				}
				if vc.Active {
					active++
					out := &r.Out[vc.OutPort]
					if active <= limit {
						credits := -1
						held := false
						slots := -1
						if out.Link != nil {
							credits = int(out.Credits[vc.OutVC])
							held = out.held(int(vc.OutVC))
							slots = out.Link.FreeSlots()
						}
						f := vc.Buf.Front()
						p := net.Packet(f.P)
						fmt.Fprintf(&b, "ACTIVE node=%d in=%d/%v vc=%d pkt=%d seq=%d len=%d -> out=%d/%v outVC=%d credits=%d held=%v slots=%d buffered=%d\n",
							r.ID, ip, in.Kind, v, p.ID, f.Seq, p.Length, vc.OutPort, out.Kind, vc.OutVC, credits, held, slots, vc.Buf.Len())
					}
				} else {
					inactive++
					if inactive <= limit {
						p := net.Packet(vc.Buf.Front().P)
						fmt.Fprintf(&b, "VA-WAIT node=%d in=%d/%v vc=%d pkt=%d dst=%d restricted=%v buffered=%d\n",
							r.ID, ip, in.Kind, v, p.ID, p.Dst, p.Restricted, vc.Buf.Len())
					}
				}
			}
		}
	}
	fmt.Fprintf(&b, "total: %d active-stalled VCs, %d VA-waiting VCs\n", active, inactive)

	// Cross-check Held flags against active owners: a held output VC with
	// no active input VC pointing at it is a leaked allocation.
	heldTotal, leaked, lowCredit := 0, 0, 0
	for _, r := range net.Nodes {
		for op := range r.Out {
			out := &r.Out[op]
			for ov := 0; ov < net.Cfg.VCs; ov++ {
				if out.Link != nil && out.Credits[ov] < out.Depth/2 {
					lowCredit++
				}
				if !out.held(ov) {
					continue
				}
				heldTotal++
				owned := false
				for _, in := range r.In {
					for v := range in.VCs {
						vc := &in.VCs[v]
						if vc.Active && int(vc.OutPort) == op && int(vc.OutVC) == ov {
							owned = true
						}
					}
				}
				if !owned {
					leaked++
					if leaked <= limit {
						fmt.Fprintf(&b, "LEAKED-HELD node=%d out=%d/%v vc=%d credits=%d\n", r.ID, op, out.Kind, ov, out.Credits[ov])
					}
				}
			}
		}
	}
	fmt.Fprintf(&b, "held=%d leaked=%d lowCreditVCs=%d\n", heldTotal, leaked, lowCredit)
	return b.String()
}

// StallSummary is the watchdog's account of a deadlock, on one line:
// DeadlockReport's first stalled input VC, in node order, and its totals.
// DeadlockReport reads router buffers alone, so where none holds a flit
// the summary adds how many sit in links and adapters. It is the same at
// every shard count.
func (net *Network) StallSummary() string {
	lines := strings.Split(net.DeadlockReport(1), "\n")
	i := slices.IndexFunc(lines, func(l string) bool { return strings.HasPrefix(l, "total: ") })
	if i == 0 { // no router buffers a flit
		return fmt.Sprintf("%s; %d flits in links and adapters", lines[0], net.TakeSnapshot(0).FlitsInLinks)
	}
	return lines[0] + "; " + lines[i]
}

// String renders the snapshot.
func (s Snapshot) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "cycle %d: %d flits buffered (%d in links), %d active pkts (%d restricted), %d queued\n",
		s.Cycle, s.FlitsBuffered, s.FlitsInLinks, s.ActivePkts, s.RestrictedPkts, s.QueuedPkts)
	for k, n := range s.FlitsByKind {
		fmt.Fprintf(&b, "  buffered at %v inputs: %d\n", k, n)
	}
	for _, tn := range s.TopNodes {
		fmt.Fprintf(&b, "  node %d: %d flits\n", tn.Node, tn.Flits)
	}
	return b.String()
}
