package core

import (
	"testing"

	"heteroif/internal/network"
)

// serialFirst is a test policy that always prefers the serial PHY — the
// worst case for a dying serial wire, and the easiest way to generate
// serial retry telemetry.
type serialFirst struct{}

func (serialFirst) Name() string { return "serial-first" }
func (serialFirst) Dispatch(st *State, _ network.Flit) (PHY, bool) {
	if st.SerialBudget > 0 {
		return PHYSerial, true
	}
	return PHYParallel, st.ParallelBudget > 0
}

// downHook is a network.TxFault whose wire is dead during [from, to).
type downHook struct{ from, to int64 }

func (h downHook) Corrupt(int64) bool  { return false }
func (h downHook) Down(now int64) bool { return now >= h.from && now < h.to }

func testFailover() *FailoverPolicy {
	p := NewFailoverPolicy(serialFirst{})
	p.Window = 10
	p.MinSample = 4
	p.TripRate = 0.5
	p.ProbeInterval = 20
	p.RecoverWindows = 2
	p.EvictAge = 50
	return p
}

// feed drives the monitor with one Dispatch per cycle over [from, to),
// using linearly growing cumulative serial counters.
func feed(p *FailoverPolicy, from, to int64, sentPerCycle, retryPerCycle uint64, sent, retries *uint64) {
	for now := from; now < to; now++ {
		*sent += sentPerCycle
		*retries += retryPerCycle
		p.Dispatch(&State{
			Now: now, ParallelBudget: 1, SerialBudget: 1,
			SerialSent: *sent, SerialRetries: *retries,
		}, network.Flit{})
	}
}

// TestFailoverTripProbeRecover walks the full lifecycle: healthy → trip on
// a high-retry window → parallel-only with periodic serial probes →
// recovery after consecutive healthy windows.
func TestFailoverTripProbeRecover(t *testing.T) {
	p := testFailover()
	var sent, retries uint64

	// Healthy traffic: no retries. Several windows close without tripping.
	feed(p, 0, 40, 2, 0, &sent, &retries)
	if p.Tripped() {
		t.Fatal("tripped on retry-free traffic")
	}
	if phy, ok := p.Dispatch(&State{Now: 40, SerialBudget: 1, SerialSent: sent, SerialRetries: retries}, network.Flit{}); phy != PHYSerial || !ok {
		t.Fatal("healthy policy did not defer to serial-first base")
	}

	// Degraded: every transmission is a retransmission. The next window
	// close must trip.
	feed(p, 41, 60, 2, 2, &sent, &retries)
	if !p.Tripped() || p.Trips() != 1 {
		t.Fatalf("did not trip on 100%% retry rate: tripped=%v trips=%d", p.Tripped(), p.Trips())
	}

	// Tripped: traffic goes parallel, except one serial probe per interval.
	var serialProbes, parallel int
	for now := int64(60); now < 120; now++ {
		phy, ok := p.Dispatch(&State{Now: now, ParallelBudget: 1, SerialBudget: 1, SerialSent: sent, SerialRetries: retries}, network.Flit{})
		if !ok {
			t.Fatalf("tripped policy stalled at cycle %d with both budgets free", now)
		}
		if phy == PHYSerial {
			serialProbes++
		} else {
			parallel++
		}
	}
	if serialProbes == 0 || serialProbes > 4 {
		t.Fatalf("%d serial probes over 60 cycles with interval 20, want 1–4", serialProbes)
	}
	if parallel == 0 {
		t.Fatal("tripped policy sent nothing to the parallel PHY")
	}

	// Wire heals: probe transmissions succeed without retries. After
	// RecoverWindows consecutive healthy windows the policy fails back.
	feed(p, 120, 200, 1, 0, &sent, &retries)
	if p.Tripped() || p.Recoveries() != 1 {
		t.Fatalf("did not recover: tripped=%v recoveries=%d", p.Tripped(), p.Recoveries())
	}
}

// TestFailoverMinSampleGuard: a tiny sample with a bad ratio must not trip
// (one unlucky flit at idle is not a dead wire).
func TestFailoverMinSampleGuard(t *testing.T) {
	p := testFailover()
	var sent, retries uint64
	// One transmission + one retransmission per window: rate 1.0 but
	// Den = 2 < MinSample = 4 at every window close.
	for now := int64(0); now < 100; now += 5 {
		sent++
		retries++
		p.Dispatch(&State{Now: now, SerialBudget: 1, SerialSent: sent, SerialRetries: retries}, network.Flit{})
	}
	if p.Tripped() {
		t.Fatal("tripped below the MinSample floor")
	}
}

// TestFailoverEvictSerial: eviction fires only while tripped, with flits
// pending, once the oldest has aged past EvictAge.
func TestFailoverEvictSerial(t *testing.T) {
	p := testFailover()
	st := State{SerialPending: 3, SerialOldestAge: 100}
	if p.EvictSerial(&st) {
		t.Fatal("evicted while healthy")
	}
	var sent, retries uint64
	feed(p, 0, 20, 2, 2, &sent, &retries) // trip
	if !p.Tripped() {
		t.Fatal("setup: policy did not trip")
	}
	if !p.EvictSerial(&st) {
		t.Fatal("no eviction while tripped with an over-age flit")
	}
	if p.EvictSerial(&State{SerialPending: 3, SerialOldestAge: 10}) {
		t.Fatal("evicted a flit younger than EvictAge")
	}
	if p.EvictSerial(&State{SerialPending: 0, SerialOldestAge: 100}) {
		t.Fatal("evicted with nothing pending")
	}
}

// TestFailoverClonePolicy: clones share parameters but never monitor state.
func TestFailoverClonePolicy(t *testing.T) {
	p := testFailover()
	var sent, retries uint64
	feed(p, 0, 20, 2, 2, &sent, &retries)
	if !p.Tripped() {
		t.Fatal("setup: policy did not trip")
	}
	c, ok := p.ClonePolicy().(*FailoverPolicy)
	if !ok {
		t.Fatal("ClonePolicy did not return a *FailoverPolicy")
	}
	if c.Tripped() || c.Trips() != 0 {
		t.Fatal("clone inherited tripped state")
	}
	if c.Window != p.Window || c.TripRate != p.TripRate || c.EvictAge != p.EvictAge {
		t.Fatal("clone lost monitoring parameters")
	}
	if c.Name() != "failover+serial-first" {
		t.Fatalf("clone name %q", c.Name())
	}
}

// TestPolicyByNameFailover: the registry builds a failover-wrapped
// balanced policy.
func TestPolicyByNameFailover(t *testing.T) {
	pol, err := PolicyByName("failover")
	if err != nil {
		t.Fatal(err)
	}
	if pol.Name() != "failover+balanced" {
		t.Fatalf("name %q", pol.Name())
	}
	if _, ok := pol.(PolicyCloner); !ok {
		t.Fatal("failover policy does not implement PolicyCloner")
	}
}

// TestAdapterFailoverRescuesDeadSerial is the adapter-level integration
// test: the serial wire dies permanently under a serial-preferring policy.
// The failover monitor must trip, evict the stuck flits off the serial
// replay buffer, re-issue them through the parallel PHY, and every flit
// must still come out of the ROB exactly once, in order.
func TestAdapterFailoverRescuesDeadSerial(t *testing.T) {
	p := testFailover()
	a, _ := adapterUnderTest(p)
	a.EnableRetry(PHYSerial, downHook{from: 0, to: 1 << 40}, 0, 0)

	pkt := mkPkt(1<<20, network.ClassBestEffort)
	const inject = 600
	seq := int32(0)
	var got []uint16
	for now := int64(0); now < 4000; now++ {
		a.Tick(now, func(f network.Flit) { got = append(got, f.Seq) })
		if now < inject && a.FreeSlots() > 0 {
			a.Accept(now, flitOf(pkt, int(seq), 0))
			seq++
		}
	}
	if !p.Tripped() {
		t.Fatal("failover never tripped on a dead serial wire")
	}
	if a.Rescued() == 0 {
		t.Fatal("no flits were rescued off the dead serial PHY")
	}
	if len(got) != int(seq) {
		t.Fatalf("delivered %d of %d flits (ROB wedged on a dead-wire VSN gap?)", len(got), seq)
	}
	for i, s := range got {
		if s != uint16(i) {
			t.Fatalf("delivery order broken at %d: seq %d", i, s)
		}
	}
	if st := a.SerialRetry().Stats; st.Evicted == 0 || st.Delivered != 0 {
		t.Fatalf("serial pipe stats inconsistent with a dead wire: %+v", st)
	}
	if a.Busy() {
		t.Fatal("adapter still busy after full delivery")
	}
}
