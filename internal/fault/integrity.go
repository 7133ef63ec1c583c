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
	seen map[uint64]struct{}
	dups uint64
}

// NewIntegrityChecker wraps the network's current sink (call after the
// sink is installed, e.g. after experiments.Build).
func NewIntegrityChecker(net *network.Network) *IntegrityChecker {
	c := &IntegrityChecker{seen: make(map[uint64]struct{})}
	prev := net.Sink
	net.Sink = func(p *network.Packet) {
		if _, dup := c.seen[p.ID]; dup {
			c.dups++
		} else {
			c.seen[p.ID] = struct{}{}
		}
		if prev != nil {
			prev(p)
		}
	}
	return c
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
