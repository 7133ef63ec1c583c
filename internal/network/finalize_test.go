package network

import (
	"fmt"
	"reflect"
	"strings"
	"testing"
)

// TestFinalizeTwicePanics: a network is finalized once; a second call
// panics and names the call.
func TestFinalizeTwicePanics(t *testing.T) {
	net, _ := twoNodeNet(t, KindOnChip, nil)
	defer func() {
		if msg, _ := recover().(string); !strings.Contains(msg, "Finalize called on a finalized network") {
			t.Fatalf("second Finalize recovered %q, want a panic naming the call", msg)
		}
	}()
	net.Finalize()
	t.Fatal("second Finalize returned")
}

// TestArmAfterFinalize: a protocol armed on a finalized link — retry, the
// way fault.Attach arms it on a built system, or an adapter — leaves the
// source router's output exactly as arming it before Finalize does, and
// the run delivers every packet at the same cycle. The retry window holds:
// a 4-flit replay buffer never holds more than 4 flits (a switch stage
// that kept granting the link its static bandwidth fills it to 80).
func TestArmAfterFinalize(t *testing.T) {
	for _, tc := range []struct {
		name string
		arm  func(*Network, *Link)
	}{
		{"retry", func(net *Network, l *Link) { l.EnableRetry(nil, 4, 0, net.Packets()) }},
		{"adapter", func(net *Network, l *Link) { net.SetAdapter(l, &fifoAdapter{bw: 4, depth: 3, delay: 6}) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			run := func(armFirst bool) (state string, arrivals [][2]int64, peak int) {
				net, l := declareTwoNodeNet(t, KindSerial, nil)
				if armFirst {
					tc.arm(net, l)
				}
				net.Finalize()
				if !armFirst {
					tc.arm(net, l)
				}
				state = outputState(net.Nodes[0], l)
				net.Sink = func(p *Packet) { arrivals = append(arrivals, [2]int64{int64(p.ID), p.ArrivedAt}) }
				for i := 0; i < 50; i++ {
					net.Offer(net.NewPacket(0, 1, net.Cfg.PacketLength, 0))
				}
				for net.Now < 400 {
					net.Step()
					if rp := l.Retry(); rp != nil {
						peak = max(peak, len(rp.replay))
					}
				}
				if err := net.CheckCredits(); err != nil {
					t.Fatal(err)
				}
				return state, arrivals, peak
			}
			wantState, want, _ := run(true)
			state, got, peak := run(false)
			if state != wantState {
				t.Errorf("armed after Finalize, the source output is\n%s\nwant, as armed before,\n%s", state, wantState)
			}
			if len(want) == 0 || !reflect.DeepEqual(got, want) {
				t.Errorf("armed after Finalize: %d arrivals, %d armed before, or their cycles differ", len(got), len(want))
			}
			if peak > 4 {
				t.Errorf("replay buffer held %d flits, window 4", peak)
			}
		})
	}
}

// outputState renders what bindOutput derives for l at its source router r.
func outputState(r *Router, l *Link) string {
	return fmt.Sprintf("slow %v, deliver bound %v, outBase %v, outDyn %v, outAvailBase %d",
		r.Out[l.SrcPort].slow, l.deliver != nil, r.outBase, r.outDyn, r.outAvailBase)
}

// fifoAdapter is the least Adapter: up to depth flits in order, each
// released delay cycles after it was accepted, at most bw accepted a cycle.
type fifoAdapter struct {
	bw, depth, delay int
	q                []Flit
	due              []int64
	accepted         int
}

func (a *fifoAdapter) FreeSlots() int { return min(a.bw-a.accepted, a.depth-len(a.q)) }

func (a *fifoAdapter) Accept(now int64, f Flit) {
	a.q, a.due = append(a.q, f), append(a.due, now+int64(a.delay))
	a.accepted++
}

func (a *fifoAdapter) Tick(now int64, deliver func(Flit)) {
	for len(a.q) > 0 && a.due[0] <= now {
		deliver(a.q[0])
		a.q, a.due = a.q[1:], a.due[1:]
	}
	a.accepted = 0
}

func (a *fifoAdapter) InFlight() int { return len(a.q) }

func (a *fifoAdapter) Busy() bool { return len(a.q) > 0 || a.accepted > 0 }
