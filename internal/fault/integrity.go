package fault

import (
	"fmt"

	"heteroif/internal/network"
)

// IntegrityChecker verifies exactly-once delivery under fault injection: it
// chains into the network's packet sink, records every delivered packet ID
// and flags duplicates. Per-packet flit ordering is enforced by the engine
// itself (the router panics on an out-of-order or duplicate flit at a VC
// front), so exactly-once packet delivery plus a clean drain is the full
// integrity statement.
type IntegrityChecker struct {
	// seen is a bitset over packet IDs, which NewPacket hands out densely
	// from 1.
	seen []uint64
	dups uint64
}

// NewIntegrityChecker wraps the network's current sink (call after the
// sink is installed, e.g. after experiments.Build).
func NewIntegrityChecker(net *network.Network) *IntegrityChecker {
	c := &IntegrityChecker{}
	prev := net.Sink
	net.Sink = func(p *network.Packet) {
		c.record(p.ID)
		if prev != nil {
			prev(p)
		}
	}
	return c
}

// record marks one delivery of packet id, counting it as a duplicate when
// the ID was delivered before.
func (c *IntegrityChecker) record(id uint64) {
	w, bit := id>>6, uint64(1)<<(id&63)
	for uint64(len(c.seen)) <= w {
		c.seen = append(c.seen, 0)
	}
	if c.seen[w]&bit != 0 {
		c.dups++
		return
	}
	c.seen[w] |= bit
}

// Check returns nil when every injected packet was delivered exactly once
// and nothing is left in flight. Call it after the network drained.
func (c *IntegrityChecker) Check(net *network.Network) error {
	if c.dups > 0 {
		return fmt.Errorf("fault: %d duplicate packet deliveries", c.dups)
	}
	if d, i := net.PacketsDelivered(), net.PacketsInjected(); d != i {
		return fmt.Errorf("fault: delivered %d of %d injected packets", d, i)
	}
	if n := net.InFlightFlits(); n != 0 {
		return fmt.Errorf("fault: %d flits still in flight after drain", n)
	}
	return nil
}
