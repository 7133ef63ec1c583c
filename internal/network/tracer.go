package network

import (
	"fmt"
	"io"
)

// EventKind labels a traced simulation event.
type EventKind uint8

const (
	// EvInject: a packet's first flit entered the injection port.
	EvInject EventKind = iota
	// EvHop: a head flit was granted switch passage toward a link.
	EvHop
	// EvEject: a packet's tail flit left the network.
	EvEject
	// EvVAFail: a head flit failed VC allocation this cycle.
	EvVAFail
)

// String returns the event name.
func (k EventKind) String() string {
	switch k {
	case EvInject:
		return "inject"
	case EvHop:
		return "hop"
	case EvEject:
		return "eject"
	case EvVAFail:
		return "va-fail"
	default:
		return fmt.Sprintf("event(%d)", uint8(k))
	}
}

// Event is one traced occurrence.
type Event struct {
	Cycle int64
	Kind  EventKind
	PktID uint64
	Node  NodeID
	// Port/VC identify the output channel for EvHop.
	Port  int
	VC    VCID
	Kind2 LinkKind // link kind for EvHop
}

// Tracer receives simulation events. Attach one to Network.Tracer for
// debugging; nil (the default) costs nothing on the hot path beyond a
// pointer check.
type Tracer interface {
	Trace(e Event)
}

// WriterTracer formats events as one line each to an io.Writer,
// optionally filtered to a single packet ID (0 = all).
type WriterTracer struct {
	W io.Writer
	// OnlyPacket filters to one packet ID when non-zero.
	OnlyPacket uint64
	// Kinds filters to a subset of event kinds when non-empty.
	Kinds map[EventKind]bool

	n int
}

// Trace implements Tracer.
func (t *WriterTracer) Trace(e Event) {
	if t.OnlyPacket != 0 && e.PktID != t.OnlyPacket {
		return
	}
	if len(t.Kinds) > 0 && !t.Kinds[e.Kind] {
		return
	}
	t.n++
	switch e.Kind {
	case EvHop:
		fmt.Fprintf(t.W, "%8d %-8s pkt=%-6d node=%-5d port=%d vc=%d (%s)\n",
			e.Cycle, e.Kind, e.PktID, e.Node, e.Port, e.VC, e.Kind2)
	default:
		fmt.Fprintf(t.W, "%8d %-8s pkt=%-6d node=%-5d\n", e.Cycle, e.Kind, e.PktID, e.Node)
	}
}

// Events returns how many events passed the filters.
func (t *WriterTracer) Events() int { return t.n }

// CollectorTracer retains events in memory for assertions in tests.
type CollectorTracer struct {
	Events []Event
	// Cap bounds memory; older events are dropped once exceeded (0 = no
	// bound).
	Cap int
}

// Trace implements Tracer.
func (c *CollectorTracer) Trace(e Event) {
	if c.Cap > 0 && len(c.Events) >= c.Cap {
		copy(c.Events, c.Events[1:])
		c.Events = c.Events[:len(c.Events)-1]
	}
	c.Events = append(c.Events, e)
}
