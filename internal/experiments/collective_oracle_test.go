package experiments

import (
	"reflect"
	"testing"

	"heteroif/internal/collective"
	"heteroif/internal/core"
	"heteroif/internal/fault"
	"heteroif/internal/network"
	"heteroif/internal/topology"
)

// collectiveOracleRun executes one closed-loop collective on the hetero-PHY
// torus (shaped by oracleSpec) to completion at the given worker count and
// returns the arrival fingerprint plus the engine's completion report.
// With faults set it layers the seeded error model, a scripted
// mid-collective serial-PHY outage and the failover policy on top — the
// collective must still complete, identically at every worker count.
func collectiveOracleRun(t *testing.T, sharded bool, workers int, faults bool) (oracleFingerprint, collective.Report) {
	t.Helper()
	cfg := shortCfg()
	// Closed-loop runs measure the whole transient.
	cfg.WarmupCycles = 0
	cfg.Workers = workers
	var d arrivalDigest
	pt := simPoint{
		Name: "hetero-phy-torus", Cfg: cfg, Spec: oracleSpec(topology.HeteroPHYTorus, sharded),
		Hook: d.hook(false),
		Program: func(leaders []network.NodeID) *collective.Program {
			return collective.DNNTraining(leaders, []collective.Layer{
				{Name: "l0", Compute: 900, GradFlits: 96},
				{Name: "l1", Compute: 1500, GradFlits: 160},
			}, 40)
		},
		Budget: 1 << 20,
	}
	if faults {
		// The serial-insisting base guarantees collective flits are on the
		// dead wire when the outage hits, so completion requires the
		// failover trip + rescue path.
		pt.Spec.Policy = core.NewFailoverPolicy(serialPreferred{})
		pt.Faults = &fault.Config{SerialBER: 2e-4, ParallelBER: 2e-6, Seed: 7, Events: serialDownAt(300)}
	}
	out, err := pt.run()
	if err != nil {
		t.Fatalf("workers=%d faults=%v: %v", workers, faults, err)
	}
	if faults && out.Trips == 0 {
		t.Fatalf("workers=%d: serial outage tripped nothing — failover path not exercised", workers)
	}
	return d.fingerprint(), out.Report
}

// TestParallelOracleCollective extends the cross-worker-count bit-identity
// oracle to closed-loop collective workloads: a DNN training program
// (compute phases exercising quiescence fast-forward under parallel
// stepping) must produce the identical arrival stream, energies AND
// engine completion report — per-step offer/delivery cycles included — at
// every -oracle.workers count on 128 nodes, both healthy and under faults +
// a scripted serial outage with failover; the 64-node one-shard run is
// checked against oracleGolden. The CI race job picks this up through its
// 'TestParallelOracle' run filter.
func TestParallelOracleCollective(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-run oracle skipped in -short mode")
	}
	counts := parseOracleWorkers(t)
	for _, faults := range []bool{false, true} {
		name := "healthy"
		if faults {
			name = "faults+failover"
		}
		faults := faults
		t.Run(name, func(t *testing.T) {
			goldenFP, _ := collectiveOracleRun(t, false, 1, faults)
			checkOracleGolden(t, "collective/"+name, goldenFP)
			wantFP, wantRep := collectiveOracleRun(t, true, 1, faults)
			if wantFP.delivered == 0 || wantFP.delivered != wantFP.injected {
				t.Fatalf("one-shard reference degenerate: delivered %d of %d", wantFP.delivered, wantFP.injected)
			}
			for _, w := range counts {
				gotFP, gotRep := collectiveOracleRun(t, true, w, faults)
				if gotFP != wantFP {
					t.Errorf("workers=%d fingerprint diverged:\n got %+v\nwant %+v", w, gotFP, wantFP)
				}
				if !reflect.DeepEqual(gotRep, wantRep) {
					t.Errorf("workers=%d completion report diverged:\n got %+v\nwant %+v", w, gotRep, wantRep)
				}
			}
		})
	}
}
