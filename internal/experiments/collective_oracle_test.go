package experiments

import (
	"encoding/binary"
	"hash/fnv"
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
	spec := oracleSpec(topology.HeteroPHYTorus, sharded)
	if faults {
		// The serial-insisting base guarantees collective flits are on the
		// dead wire when the outage hits, so completion requires the
		// failover trip + rescue path.
		spec.Policy = core.NewFailoverPolicy(serialPreferred{})
	}
	in, err := Build(cfg, spec)
	if err != nil {
		t.Fatalf("Build(workers=%d): %v", workers, err)
	}
	defer in.release()

	prev := in.Net.Sink
	h := fnv.New64a()
	var fp oracleFingerprint
	var buf [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	in.Net.Sink = func(p *network.Packet) {
		fp.addEnergy(p)
		put(p.ID)
		put(uint64(uint32(p.Src))<<32 | uint64(uint32(p.Dst)))
		put(uint64(p.CreatedAt))
		put(uint64(p.InjectedAt))
		put(uint64(p.ArrivedAt))
		prev(p)
	}

	var chk *fault.IntegrityChecker
	if faults {
		fault.Attach(in.Net, fault.Config{
			SerialBER:   2e-4,
			ParallelBER: 2e-6,
			Seed:        7,
			Events: []fault.Event{
				{Kind: fault.EventDown, Link: -1, Phy: fault.PhySerial, From: 300, To: -1},
			},
		})
		chk = fault.NewIntegrityChecker(in.Net)
	}

	leaders := in.Topo.ChipletLeaders()
	prog := collective.DNNTraining(leaders, []collective.Layer{
		{Name: "l0", Compute: 900, GradFlits: 96},
		{Name: "l1", Compute: 1500, GradFlits: 160},
	}, 40)
	eng, err := collective.NewEngine(in.Net, prog)
	if err != nil {
		t.Fatalf("workers=%d: NewEngine: %v", workers, err)
	}
	rep, err := eng.Run(1 << 20)
	if err != nil {
		t.Fatalf("workers=%d faults=%v: %v", workers, faults, err)
	}
	if err := in.Net.CheckCredits(); err != nil {
		t.Fatalf("workers=%d: credit conservation: %v", workers, err)
	}
	if chk != nil {
		if err := chk.Check(in.Net); err != nil {
			t.Fatalf("workers=%d: integrity: %v", workers, err)
		}
		var trips uint64
		for _, ad := range in.Topo.Adapters {
			if fp, ok := ad.Policy().(*core.FailoverPolicy); ok {
				trips += fp.Trips()
			}
		}
		if trips == 0 {
			t.Fatalf("workers=%d: serial outage tripped nothing — failover path not exercised", workers)
		}
	}

	fp.finish(h.Sum64(), in.Net)
	return fp, rep
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
