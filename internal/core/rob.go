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
	pending []stamped
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

// stamped is a flit with the sequence stamps the TX side gave it at issue
// (Sec. 4.2): vsn, the per-VC issue sequence number every flit gets, and
// sn, the link-level global sequence number of in-order-class flits. The
// stamps never leave the adapter — they ride beside the flit in the PHY
// pipes, in a retry pipe's entry tag and in the ROB. Both are compared by
// equality, so 16 bits suffice while fewer than 65,536 flits sit between
// issue and release (Config.Validate).
type stamped struct {
	f       network.Flit
	sn, vsn uint16
}

// tag packs the stamps into a retry pipe's opaque entry tag; unstamp
// reverses it.
func (e stamped) tag() uint32 { return uint32(e.sn)<<16 | uint32(e.vsn) }

func unstamp(f network.Flit, tag uint32) stamped {
	return stamped{f: f, sn: uint16(tag >> 16), vsn: uint16(tag)}
}

// arrive inserts a flit a retry pipe delivered, its stamps unpacked from
// the entry tag.
func (r *ROB) arrive(f network.Flit, tag uint32) {
	e := unstamp(f, tag)
	r.Insert(e.f, e.sn, e.vsn)
}

// Insert buffers an arriving flit with its issue stamps.
func (r *ROB) Insert(f network.Flit, sn, vsn uint16) {
	r.pending = append(r.pending, stamped{f: f, sn: sn, vsn: vsn})
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
		for _, e := range r.pending {
			if r.releasable(e) {
				r.commit(e)
				deliver(e.f)
				progress = true
				continue
			}
			out = append(out, e)
		}
		r.pending = out
		if !progress {
			return
		}
	}
}

func (r *ROB) releasable(e stamped) bool {
	if e.vsn != r.nextVSN[e.f.VC] {
		return false
	}
	if e.f.Class == network.ClassInOrder && e.sn != r.nextSN {
		return false
	}
	return true
}

func (r *ROB) commit(e stamped) {
	r.occupancy--
	if vc := e.f.VC; e.vsn != r.nextVSN[vc] {
		panic(fmt.Sprintf("core: ROB released VC %d flit VSN %d, expected %d", vc, e.vsn, r.nextVSN[vc]))
	}
	r.nextVSN[e.f.VC]++
	if e.f.Class == network.ClassInOrder {
		r.nextSN++
	}
}

// Occupancy returns the number of buffered flits.
func (r *ROB) Occupancy() int { return r.occupancy }

// MaxOccupancy returns the high-water mark, for validating the Eq. 1
// capacity estimate S_rob = B_p × (D_s − D_p).
func (r *ROB) MaxOccupancy() int { return r.maxOcc }
