package experiments

import (
	"fmt"
	"testing"

	"heteroif/internal/core"
	"heteroif/internal/fault"
	"heteroif/internal/network"
	"heteroif/internal/topology"
	"heteroif/internal/traffic"
)

// TestEnergyConservation checks what the packets were charged against what
// the links say they carried — two ledgers the engine keeps independently:
// the per-flit traversal counts settled into Packet.Energy*PJ at ejection,
// and the link-side counters (Link.SentTotal, the adapters' per-PHY issue
// counts, the retry pipes' Stats, Network.GrantsByKind). After a full drain
// every flit that crossed a channel has been ejected, so
//
//	Σ EnergyIfacePJ  = Σ_c traversals_c × FlitPJ(c),  c ∈ {parallel, serial}
//	Σ EnergyOnChipPJ = on-chip traversals × FlitPJ(on-chip) + Σ grants × RouterPJPerFlit
//
// within float rounding wherever no retry pipe is armed. A retry pipe
// charges a flit every transmission up to the one that was delivered;
// copies sent after it (a duplicate already on the wire when the nack
// rewound the sender) are charged to no packet, so there the traversals of
// a class are only bounded: at least Stats.Delivered, at most
// Stats.Transmits. Every scenario runs at one shard on 64 nodes and at each
// -oracle.workers count on 128 (oracleSpec: two shards hold routers), under
// -race in CI: the settlement reads counts other shards wrote in earlier
// phases.
func TestEnergyConservation(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-run check skipped in -short mode")
	}
	outage := fault.Config{SerialBER: 2e-4, ParallelBER: 2e-6, Seed: 7, Events: serialDownAt(300)}
	scenarios := []struct {
		name   string
		sys    topology.System
		faults *fault.Config
	}{
		{name: "uniform-parallel-mesh", sys: topology.UniformParallelMesh},
		{name: "uniform-serial-torus", sys: topology.UniformSerialTorus},
		{name: "hetero-phy-torus", sys: topology.HeteroPHYTorus},
		{name: "uniform-serial-hypercube", sys: topology.UniformSerialHypercube},
		{name: "hetero-channel", sys: topology.HeteroChannel},
		{name: "hetero-phy-torus/faults+retry", sys: topology.HeteroPHYTorus,
			faults: &fault.Config{SerialBER: 2e-4, ParallelBER: 2e-6, Seed: 7}},
		// The serial-insisting base puts flits on the wire that dies, so
		// draining needs the failover trip and the rescue onto the
		// parallel PHY: a rescued flit is charged on both.
		{name: "hetero-phy-torus/failover+rescue", sys: topology.HeteroPHYTorus, faults: &outage},
	}
	for _, sc := range scenarios {
		sc := sc
		t.Run(sc.name, func(t *testing.T) {
			for _, workers := range append([]int{1}, parseOracleWorkers(t)...) {
				cfg := shortCfg()
				cfg.SimCycles = 3000
				cfg.Workers = workers
				spec := oracleSpec(sc.sys, workers > 1)
				if sc.faults == &outage {
					spec.Policy = core.NewFailoverPolicy(serialPreferred{})
				}
				checkEnergyConservation(t, cfg, spec, sc.faults, sc.faults == &outage)
			}
		})
	}
}

// checkEnergyConservation runs one system to a full drain, with the fault
// model and its integrity check armed when faults is set, and compares the
// two ledgers.
func checkEnergyConservation(t *testing.T, c network.Config, spec topology.Spec, faults *fault.Config, wantRescue bool) {
	t.Helper()
	tag := fmt.Sprintf("workers=%d", c.Workers)

	// Packet side: sums in sink order, plus the per-packet identities.
	var charged [2]float64 // on-chip, interface
	var net *network.Network
	hook := func(in *Instance) error {
		net = in.Net
		cfg, plain := &in.Net.Cfg, len(in.Topo.Adapters) == 0
		prev := net.Sink
		net.Sink = func(p *network.Packet) {
			charged[0] += p.EnergyOnChipPJ
			charged[1] += p.EnergyIfacePJ
			if p.EnergyPJ != p.EnergyOnChipPJ+p.EnergyIfacePJ {
				t.Errorf("%s: packet %d: total %v pJ is not on-chip %v + interface %v", tag, p.ID, p.EnergyPJ, p.EnergyOnChipPJ, p.EnergyIfacePJ)
			}
			if plain {
				// Plain links only: every flit follows the head, so the
				// settlement has a closed form in Length and the hop counters.
				l := int(p.Length)
				onChip := float64(l*(p.Hops()+1))*cfg.RouterPJPerFlit + float64(l*int(p.HopsOnChip))*cfg.FlitPJ(network.KindOnChip)
				iface := float64(l*int(p.HopsParallel))*cfg.FlitPJ(network.KindParallel) + float64(l*int(p.HopsSerial))*cfg.FlitPJ(network.KindSerial)
				if p.EnergyOnChipPJ != onChip || p.EnergyIfacePJ != iface {
					t.Errorf("%s: packet %d (%d flits, hops %d/%d/%d): settled %v/%v pJ on-chip/interface, closed form %v/%v",
						tag, p.ID, l, p.HopsOnChip, p.HopsParallel, p.HopsSerial, p.EnergyOnChipPJ, p.EnergyIfacePJ, onChip, iface)
				}
			}
			prev(p)
		}
		return nil
	}

	out, err := simPoint{
		Name: spec.System.String(), Cfg: c, Spec: spec, Faults: faults, Hook: hook,
		Pattern: traffic.Uniform{}, Rate: 0.15, Drain: true,
	}.run()
	if err != nil {
		t.Fatalf("%s: %v", tag, err)
	}
	if out.Delivered == 0 || out.Delivered != out.Injected {
		t.Fatalf("%s: delivered %d of %d packets", tag, out.Delivered, out.Injected)
	}
	cfg := &net.Cfg

	// Link side: traversals per energy class, as [lower, upper] bounds that
	// coincide wherever no retry pipe is armed.
	var lo, hi [3]uint64
	add := func(k network.LinkKind, n uint64) { lo[k] += n; hi[k] += n }
	addPipe := func(k network.LinkKind, rp *network.RetryPipe) {
		lo[k] += rp.Stats.Delivered
		hi[k] += rp.Stats.Transmits
	}
	var rescued uint64
	for _, l := range net.Links {
		switch ad, _ := l.Adapter.(*core.HeteroPHYAdapter); {
		case ad != nil:
			if issued := ad.ParallelFlits() + ad.SerialFlits(); l.SentTotal != issued {
				t.Errorf("%s: hetero-PHY link %d accepted %d flits, its adapter issued %d", tag, l.ID, l.SentTotal, issued)
			}
			rescued += ad.Rescued()
			if rp := ad.ParallelRetry(); rp != nil {
				addPipe(network.KindParallel, rp) // rescued flits re-enter here
			} else {
				add(network.KindParallel, ad.ParallelFlits()+ad.Rescued())
			}
			if rp := ad.SerialRetry(); rp != nil {
				addPipe(network.KindSerial, rp)
			} else {
				add(network.KindSerial, ad.SerialFlits())
			}
		case l.Retry() != nil:
			addPipe(l.Kind, l.Retry())
		default:
			add(l.Kind, l.SentTotal)
		}
	}
	if wantRescue && rescued == 0 {
		t.Fatalf("%s: the serial outage rescued nothing — failover path not exercised", tag)
	}
	var grants uint64
	for _, g := range net.GrantsByKind {
		grants += g
	}
	routers := float64(grants) * cfg.RouterPJPerFlit
	pj := func(n [3]uint64, kinds ...network.LinkKind) float64 {
		e := 0.0
		for _, k := range kinds {
			e += float64(n[k]) * cfg.FlitPJ(k)
		}
		return e
	}
	within := func(what string, got, min, max float64) {
		if !(got >= min*(1-1e-9) && got <= max*(1+1e-9)) { // a NaN fails too
			t.Errorf("%s: packets were charged %v pJ %s, the links carried [%v, %v] pJ (traversals on-chip/parallel/serial: at least %v, at most %v; %d grants)",
				tag, got, what, min, max, lo, hi, grants)
		}
	}
	within("on-chip", charged[0], routers+pj(lo, network.KindOnChip), routers+pj(hi, network.KindOnChip))
	within("interface", charged[1], pj(lo, network.KindParallel, network.KindSerial), pj(hi, network.KindParallel, network.KindSerial))
}
