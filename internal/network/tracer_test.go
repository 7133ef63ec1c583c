package network

import (
	"bytes"
	"strings"
	"testing"
)

func TestTracerSeesPacketLifecycle(t *testing.T) {
	net, _ := twoNodeNet(t, KindParallel, nil)
	col := &CollectorTracer{}
	net.Tracer = col
	p := net.NewPacket(0, 1, 4, 0)
	net.Offer(p)
	if err := runCycles(net, 200); err != nil {
		t.Fatal(err)
	}
	var inject, hop, eject int
	for _, e := range col.Events {
		if e.PktID != p.ID {
			continue
		}
		switch e.Kind {
		case EvInject:
			inject++
			if e.Node != 0 {
				t.Errorf("inject at node %d, want 0", e.Node)
			}
		case EvHop:
			hop++
			if e.Kind2 != KindParallel && e.Kind2 != KindLocal {
				t.Errorf("hop over %v", e.Kind2)
			}
		case EvEject:
			eject++
			if e.Node != 1 {
				t.Errorf("eject at node %d, want 1", e.Node)
			}
		}
	}
	if inject != 1 || eject != 1 {
		t.Fatalf("lifecycle events: %d injects, %d ejects (want 1/1)", inject, eject)
	}
	if hop == 0 {
		t.Fatal("no hop events recorded")
	}
	// Events must be time-ordered.
	for i := 1; i < len(col.Events); i++ {
		if col.Events[i].Cycle < col.Events[i-1].Cycle {
			t.Fatal("events out of time order")
		}
	}
}

func TestWriterTracerFiltering(t *testing.T) {
	net, _ := twoNodeNet(t, KindOnChip, nil)
	var buf bytes.Buffer
	wt := &WriterTracer{W: &buf, Kinds: map[EventKind]bool{EvEject: true}}
	net.Tracer = wt
	net.Offer(net.NewPacket(0, 1, 2, 0))
	net.Offer(net.NewPacket(1, 0, 2, 0))
	if err := runCycles(net, 200); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if strings.Count(out, "eject") != 2 {
		t.Fatalf("expected 2 eject lines, got:\n%s", out)
	}
	if strings.Contains(out, "inject") {
		t.Fatal("kind filter leaked inject events")
	}
	if wt.Events() != 2 {
		t.Fatalf("counted %d events, want 2", wt.Events())
	}

	// Packet filter.
	buf.Reset()
	net2, _ := twoNodeNet(t, KindOnChip, nil)
	p1 := net2.NewPacket(0, 1, 2, 0)
	p2 := net2.NewPacket(1, 0, 2, 0)
	net2.Tracer = &WriterTracer{W: &buf, OnlyPacket: p2.ID}
	net2.Offer(p1)
	net2.Offer(p2)
	if err := runCycles(net2, 200); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(buf.String(), "pkt="+itoa(p1.ID)+" ") {
		t.Fatal("packet filter leaked other packets")
	}
}

func itoa(v uint64) string {
	var b [20]byte
	i := len(b)
	for {
		i--
		b[i] = byte('0' + v%10)
		v /= 10
		if v == 0 {
			return string(b[i:])
		}
	}
}

func TestCollectorTracerCap(t *testing.T) {
	c := &CollectorTracer{Cap: 3}
	for i := 0; i < 10; i++ {
		c.Trace(Event{Cycle: int64(i)})
	}
	if len(c.Events) != 3 {
		t.Fatalf("retained %d events, want 3", len(c.Events))
	}
	if c.Events[0].Cycle != 7 || c.Events[2].Cycle != 9 {
		t.Fatalf("wrong retained window: %v", c.Events)
	}
}

func TestEventKindStrings(t *testing.T) {
	for _, k := range []EventKind{EvInject, EvHop, EvEject, EvVAFail, EventKind(77)} {
		if k.String() == "" {
			t.Error("empty event kind name")
		}
	}
}
