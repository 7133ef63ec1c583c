package network_test

import (
	"testing"

	"heteroif/internal/network/netbench"
)

// TestSaturatedStepZeroAllocs asserts the steady-state guarantee the
// kernel manifest records for the saturated mesh cases: once the engine
// is warm (every scratch slice and work list at steady capacity), a
// one-shard Step under full saturation load allocates nothing. Packet
// churn is covered too — PoolPackets recycles finished packets, so even
// the injection path stays off the heap.
func TestSaturatedStepZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; the non-race CI job covers this")
	}
	net := netbench.BuildMesh(8)
	sat := netbench.Saturate(net)
	if avg := testing.AllocsPerRun(500, func() {
		sat.Drive(net.Now)
		net.Step()
	}); avg != 0 {
		t.Errorf("saturated one-shard Step allocates %.2f times per cycle, want 0", avg)
	}
}

// TestSaturatedParallelStepZeroAllocs is the two-shard case: saturated
// stepping through the worker dispatch and the cross-shard merge must also
// be allocation-free in steady state. SetWorkers(2) always starts a real
// worker goroutine, whatever the host's CPU count.
func TestSaturatedParallelStepZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; the non-race CI job covers this")
	}
	net := netbench.BuildMesh(8)
	net.SetWorkers(2)
	sat := netbench.Saturate(net)
	if avg := testing.AllocsPerRun(500, func() {
		sat.Drive(net.Now)
		net.Step()
	}); avg != 0 {
		t.Errorf("saturated parallel Step allocates %.2f times per cycle, want 0", avg)
	}
}
