package core

import (
	"fmt"

	"heteroif/internal/network"
)

// ROB is the receive-side reorder buffer of a hetero-PHY adapter
// (Sec. 4.2). Because the two PHYs have different propagation delays,
// flits can arrive out of order; the ROB releases them downstream subject
// to two rules:
//
//  1. per-VC FIFO order: flits of one virtual channel are released in the
//     order the TX side issued them (the VSN stamp). Wormhole/VCT
//     switching requires this — packets sharing a VC must stay contiguous
//     — and it subsumes per-packet flit ordering. This is the "multi-port
//     input buffer" role of Fig. 7(a), merged with the input buffer as
//     Sec. 4.3 suggests.
//  2. link-level global order for in-order traffic: a ClassInOrder flit is
//     additionally released only when every earlier in-order flit (by the
//     global SN stamped at dispatch) has been released, the coherence-
//     friendly ordering of Sec. 4.2. Other classes skip this rule — the
//     TX-side bypass is allowed only at the parallel interface.
type ROB struct {
	pending []network.Flit
	nextSN  uint16   // next global in-order SN to release
	nextVSN []uint16 // next per-VC sequence to release

	occupancy int
	maxOcc    int
}

// NewROB returns an empty reorder buffer for a link with vcs virtual
// channels.
func NewROB(vcs int) *ROB {
	return &ROB{nextVSN: make([]uint16, vcs)}
}

// Insert buffers an arriving flit.
func (r *ROB) Insert(f network.Flit) {
	r.pending = append(r.pending, f)
	r.occupancy++
	if r.occupancy > r.maxOcc {
		r.maxOcc = r.occupancy
	}
}

// Release delivers every currently releasable flit, in order, via deliver.
func (r *ROB) Release(deliver func(network.Flit)) {
	for {
		progress := false
		out := r.pending[:0]
		for _, f := range r.pending {
			if r.releasable(f) {
				r.commit(f)
				deliver(f)
				progress = true
				continue
			}
			out = append(out, f)
		}
		// Zero the tail so released flits don't pin packets.
		for i := len(out); i < len(r.pending); i++ {
			r.pending[i] = network.Flit{}
		}
		r.pending = out
		if !progress {
			return
		}
	}
}

func (r *ROB) releasable(f network.Flit) bool {
	if f.VSN != r.nextVSN[f.VC] {
		return false
	}
	if f.Pkt.Class == network.ClassInOrder && f.SN != r.nextSN {
		return false
	}
	return true
}

func (r *ROB) commit(f network.Flit) {
	r.occupancy--
	if f.VSN != r.nextVSN[f.VC] {
		panic(fmt.Sprintf("core: ROB released VC %d flit VSN %d, expected %d", f.VC, f.VSN, r.nextVSN[f.VC]))
	}
	r.nextVSN[f.VC]++
	if f.Pkt.Class == network.ClassInOrder {
		r.nextSN++
	}
}

// Occupancy returns the number of buffered flits.
func (r *ROB) Occupancy() int { return r.occupancy }

// MaxOccupancy returns the high-water mark, for validating the Eq. 1
// capacity estimate S_rob = B_p × (D_s − D_p).
func (r *ROB) MaxOccupancy() int { return r.maxOcc }
