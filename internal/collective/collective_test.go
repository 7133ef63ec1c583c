package collective_test

import (
	"strings"
	"testing"

	"heteroif/internal/collective"
	"heteroif/internal/network"
	"heteroif/internal/network/netbench"
	"heteroif/internal/traffic"
)

// The engine must satisfy the closed-loop driver contract extracted into
// internal/traffic.
var _ traffic.Driver = (*collective.Engine)(nil)

func parts(ids ...int) []network.NodeID {
	out := make([]network.NodeID, len(ids))
	for i, id := range ids {
		out[i] = network.NodeID(id)
	}
	return out
}

func TestRingAllReduceShape(t *testing.T) {
	const p = 4
	prog := collective.RingAllReduce(parts(0, 1, 2, 3), 64, 10)
	// 2-phase ring: (P-1) reduce-scatter + (P-1) all-gather steps, P msgs
	// each.
	if want := 2 * p * (p - 1); len(prog.Msgs) != want {
		t.Fatalf("msgs = %d, want %d", len(prog.Msgs), want)
	}
	if prog.Steps != 2*(p-1) {
		t.Fatalf("steps = %d, want %d", prog.Steps, 2*(p-1))
	}
	// Each message moves one chunk = ceil(64/4) flits around the ring.
	for i, m := range prog.Msgs {
		if m.Flits != 16 {
			t.Fatalf("msg %d flits = %d, want 16", i, m.Flits)
		}
		if want := parts(0, 1, 2, 3)[(int(m.Src)+1)%p]; m.Dst != want {
			t.Fatalf("msg %d dst = %d, want ring successor %d", i, m.Dst, want)
		}
	}
	// Step-0 sends are local data: no deps, no compute. Every later send
	// depends on exactly one message from the previous step at the ring
	// predecessor.
	for i := range prog.Msgs {
		m, deps := prog.Msgs[i], prog.Deps[i]
		if m.Step == 0 {
			if len(deps) != 0 || m.Compute != 0 {
				t.Fatalf("step-0 msg %d has deps=%v compute=%d", i, deps, m.Compute)
			}
			continue
		}
		if len(deps) != 1 {
			t.Fatalf("msg %d (step %d) has %d deps, want 1", i, m.Step, len(deps))
		}
		d := prog.Msgs[deps[0]]
		if d.Step != m.Step-1 {
			t.Fatalf("msg %d (step %d) depends on step %d", i, m.Step, d.Step)
		}
		if d.Dst != m.Src {
			t.Fatalf("msg %d at node %d depends on a delivery to node %d", i, m.Src, d.Dst)
		}
	}
	if prog.TotalFlits() != 2*int64(p)*int64(p-1)*16 {
		t.Fatalf("total flits = %d", prog.TotalFlits())
	}
}

func TestPhasesStandalone(t *testing.T) {
	rs := collective.ReduceScatter(parts(0, 1, 2), 30, 5)
	if len(rs.Msgs) != 3*2 || rs.Steps != 2 {
		t.Fatalf("reduce-scatter: %d msgs / %d steps", len(rs.Msgs), rs.Steps)
	}
	ag := collective.AllGather(parts(0, 1, 2), 30)
	if len(ag.Msgs) != 3*2 || ag.Steps != 2 {
		t.Fatalf("all-gather: %d msgs / %d steps", len(ag.Msgs), ag.Steps)
	}
	for i, m := range ag.Msgs {
		if m.Compute != 0 {
			t.Fatalf("all-gather msg %d has compute %d (pure forwards expected)", i, m.Compute)
		}
	}
}

func TestAllToAllWindow(t *testing.T) {
	const p, window = 5, 2
	prog := collective.AllToAll(parts(0, 1, 2, 3, 4), 8, window)
	if want := p * (p - 1); len(prog.Msgs) != want {
		t.Fatalf("msgs = %d, want %d", len(prog.Msgs), want)
	}
	for i := range prog.Msgs {
		m, deps := prog.Msgs[i], prog.Deps[i]
		if m.Src == m.Dst {
			t.Fatalf("msg %d sends to self", i)
		}
		if int(m.Step) < window {
			if len(deps) != 0 {
				t.Fatalf("msg %d (round %d) inside window has deps", i, m.Step)
			}
			continue
		}
		if len(deps) != 1 {
			t.Fatalf("msg %d has %d deps, want 1", i, len(deps))
		}
		d := prog.Msgs[deps[0]]
		if d.Src != m.Src || d.Step != m.Step-window {
			t.Fatalf("msg %d gated on %d->%d round %d, want own round-%d send",
				i, d.Src, d.Dst, d.Step, m.Step-window)
		}
	}
}

func TestValidateRejectsBadPrograms(t *testing.T) {
	prog := collective.RingAllReduce(parts(0, 1, 2, 60), 16, 0)
	if err := prog.Validate(16); err == nil || !strings.Contains(err.Error(), "out of range") {
		t.Fatalf("out-of-range endpoints not rejected: %v", err)
	}
	// A hand-built cycle must be rejected by NewEngine.
	cyc := &collective.Program{
		Name:  "cycle",
		Msgs:  []collective.Msg{{Src: 0, Dst: 1, Flits: 4}, {Src: 1, Dst: 2, Flits: 4}},
		Deps:  [][]int32{{1}, {0}},
		Steps: 1,
	}
	net := netbench.BuildMesh(4)
	if _, err := collective.NewEngine(net, cyc); err == nil || !strings.Contains(err.Error(), "cycle") {
		t.Fatalf("dependency cycle not rejected: %v", err)
	}
}

// runProg executes a program on a fresh mesh and returns the report.
func runProg(t *testing.T, side int, prog *collective.Program, budget int64) collective.Report {
	t.Helper()
	net := netbench.BuildMesh(side)
	e, err := collective.NewEngine(net, prog)
	if err != nil {
		t.Fatalf("NewEngine: %v", err)
	}
	rep, err := e.Run(budget)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if !e.Done() {
		t.Fatal("Run returned without completing")
	}
	if got := e.SortedStuck(); len(got) != 0 {
		t.Fatalf("stuck msgs after completion: %v", got)
	}
	return rep
}

func TestAllReduceCompletes(t *testing.T) {
	ps := parts(0, 3, 12, 15) // mesh corners of a 4×4
	// 20-flit chunks: each message ends in a short packet.
	prog := collective.RingAllReduce(ps, 80, 20)
	rep := runProg(t, 4, prog, 1<<20)

	if rep.Elapsed <= 0 {
		t.Fatalf("elapsed = %d", rep.Elapsed)
	}
	// Payloads are segmented at the network's packet length.
	plen := network.DefaultConfig().PacketLength
	var pkts int64
	for _, m := range prog.Msgs {
		pkts += int64((m.Flits + plen - 1) / plen)
	}
	if rep.Packets != pkts || rep.Flits != prog.TotalFlits() {
		t.Fatalf("packets=%d flits=%d want %d and %d", rep.Packets, rep.Flits, pkts, prog.TotalFlits())
	}
	if rep.StallCycles < 0 || rep.CommCycles <= 0 {
		t.Fatalf("comm=%d stall=%d", rep.CommCycles, rep.StallCycles)
	}
	if rep.CommCycles+rep.StallCycles != rep.Elapsed {
		t.Fatalf("comm %d + stall %d != elapsed %d", rep.CommCycles, rep.StallCycles, rep.Elapsed)
	}
	if len(rep.Steps) != prog.Steps {
		t.Fatalf("%d step reports for %d steps", len(rep.Steps), prog.Steps)
	}
	// Steps must complete in order. Overlap may be positive (ring deps are
	// per-neighbor, not global barriers, so adjacent steps pipeline) but
	// never larger than the previous step's span.
	for s := 1; s < len(rep.Steps); s++ {
		prev, cur := rep.Steps[s-1], rep.Steps[s]
		if cur.LastDelivery < prev.LastDelivery {
			t.Fatalf("step %d finished at %d before step %d at %d", s, cur.LastDelivery, s-1, prev.LastDelivery)
		}
		if cur.Overlap < 0 || cur.Overlap > prev.Span {
			t.Fatalf("step %d overlap = %d outside [0, %d]", s, cur.Overlap, prev.Span)
		}
	}
}

func TestDNNBarriers(t *testing.T) {
	ps := parts(0, 5, 10, 15)
	layers := []collective.Layer{
		{Name: "embed", Compute: 500, GradFlits: 64},
		{Name: "mlp", Compute: 900, GradFlits: 128},
		{Name: "head", Compute: 300, GradFlits: 32},
	}
	prog := collective.DNNTraining(ps, layers, 15)
	if want := 3 * 2 * 4 * 3; len(prog.Msgs) != want {
		t.Fatalf("msgs = %d, want %d", len(prog.Msgs), want)
	}
	if prog.Steps != 3*2*3 {
		t.Fatalf("steps = %d, want %d", prog.Steps, 3*2*3)
	}
	rep := runProg(t, 4, prog, 1<<20)

	stepsPerLayer := 2 * (len(ps) - 1)
	for l := 1; l < len(layers); l++ {
		prevEnd := rep.Steps[l*stepsPerLayer-1].LastDelivery
		curStart := rep.Steps[l*stepsPerLayer].FirstOffer
		// The barrier plus the layer compute must separate layers by at
		// least the compute delay.
		if gap := curStart - prevEnd; gap < layers[l].Compute {
			t.Fatalf("layer %d started %d cycles after layer %d finished; compute is %d",
				l, gap, l-1, layers[l].Compute)
		}
	}
	// The compute phases dominate: stall cycles must be substantial.
	if rep.StallCycles < 1500 {
		t.Fatalf("stall = %d, want >= sum of layer computes beyond overlap", rep.StallCycles)
	}
}

func TestDegenerateMessagesAreSyncPoints(t *testing.T) {
	prog := &collective.Program{
		Name: "sync",
		Msgs: []collective.Msg{
			{Src: 0, Dst: 0, Flits: 32, Compute: 100}, // self-send: pure delay
			{Src: 0, Dst: 5, Flits: 16, Step: 1},
		},
		Deps:  [][]int32{nil, {0}},
		Steps: 2,
	}
	rep := runProg(t, 4, prog, 1<<16)
	if rep.Packets == 0 {
		t.Fatal("real message did not inject")
	}
	if rep.Steps[1].FirstOffer < 100 {
		t.Fatalf("dependent offered at %d, before the sync point's compute elapsed", rep.Steps[1].FirstOffer)
	}
}

func TestBackgroundTrafficIgnored(t *testing.T) {
	// An engine sharing the network with open-loop traffic must only
	// account its own packets.
	net := netbench.BuildMesh(4)
	prog := collective.RingAllReduce(parts(0, 3, 12, 15), 64, 5)
	e, err := collective.NewEngine(net, prog)
	if err != nil {
		t.Fatalf("NewEngine: %v", err)
	}
	gen := traffic.NewGenerator(net, traffic.Uniform{}, 0.05, 42)
	deadline := net.Now + 1<<16
	for !e.Done() && net.Now < deadline {
		if err := net.RunWith(256, func(now int64) {
			gen.Drive(now)
			e.Drive(now)
		}, nil); err != nil {
			t.Fatalf("RunWith: %v", err)
		}
	}
	if !e.Done() {
		t.Fatal("collective starved under light background traffic")
	}
	rep := e.Report()
	if rep.Flits != prog.TotalFlits() {
		t.Fatalf("engine counted %d flits, program carries %d — background leaked in", rep.Flits, prog.TotalFlits())
	}
}

func TestRunBudgetExhaustion(t *testing.T) {
	net := netbench.BuildMesh(4)
	// Huge compute means nothing can complete within the budget.
	prog := collective.RingAllReduce(parts(0, 3, 12, 15), 64, 1<<30)
	e, err := collective.NewEngine(net, prog)
	if err != nil {
		t.Fatalf("NewEngine: %v", err)
	}
	if _, err := e.Run(512); err == nil || !strings.Contains(err.Error(), "incomplete") {
		t.Fatalf("budget exhaustion not reported: %v", err)
	}
}

// TestProgramBuildAllocs: building a DNN training program and its engine
// allocates a fixed number of objects, whatever the message count —
// dependency lists live in a pool and the engine's inverted graph is CSR.
func TestProgramBuildAllocs(t *testing.T) {
	net := netbench.BuildMesh(8)
	layers := []collective.Layer{
		{Name: "embed", Compute: 500, GradFlits: 64},
		{Name: "mlp", Compute: 900, GradFlits: 128},
		{Name: "head", Compute: 300, GradFlits: 32},
	}
	build := func(leaders int) float64 {
		ps := make([]network.NodeID, leaders)
		for i := range ps {
			ps[i] = network.NodeID(i * 64 / leaders)
		}
		return testing.AllocsPerRun(5, func() {
			prog := collective.DNNTraining(ps, layers, 16)
			if _, err := collective.NewEngine(net, prog); err != nil {
				t.Fatal(err)
			}
		})
	}
	small, large := build(16), build(64)
	t.Logf("allocations: %v at 16 leaders (1,440 msgs), %v at 64 (24,192 msgs)", small, large)
	if large-small > 4 {
		t.Fatalf("allocations grew from %v to %v with the message count", small, large)
	}
}
