package experiments

import (
	"encoding/binary"
	"flag"
	"hash"
	"hash/fnv"
	"runtime"
	"strconv"
	"strings"
	"testing"

	"heteroif/internal/fault"
	"heteroif/internal/network"
	"heteroif/internal/topology"
	"heteroif/internal/traffic"
)

// oracle.workers selects the worker counts checked against the sequential
// run; the CI race job pins it explicitly so the matrix is visible in the
// workflow file.
var oracleWorkers = flag.String("oracle.workers", "2,4,8",
	"comma-separated worker counts TestParallelOracle compares against workers=1")

// oracleFingerprint reduces a run to everything sharding could plausibly
// perturb: a per-packet structural hash (identity, timing, hop mix, in sink
// order — which the shard-order merge fixes), energy sums, injection and
// delivery totals, VC-allocation failure counts and the switch-allocation
// grant mix. Two runs are bit-identical iff their fingerprints are equal.
// Energy stays out of the hash so that a change to float arithmetic shows
// as the energy triple moving and nothing else.
type oracleFingerprint struct {
	structHash uint64
	energy     [3]float64 // total, on-chip, interface pJ summed in sink order
	injected   int64
	delivered  int64
	vaFailures uint64
	grants     [8]uint64
}

// addEnergy accumulates one delivered packet's energies, in sink order.
func (fp *oracleFingerprint) addEnergy(p *network.Packet) {
	fp.energy[0] += p.EnergyPJ
	fp.energy[1] += p.EnergyOnChipPJ
	fp.energy[2] += p.EnergyIfacePJ
}

// finish fills in the structural hash and the network's end-of-run totals.
func (fp *oracleFingerprint) finish(structHash uint64, net *network.Network) {
	fp.structHash = structHash
	fp.injected = net.PacketsInjected()
	fp.delivered = net.PacketsDelivered()
	fp.vaFailures = net.VAFailures
	fp.grants = net.GrantsByKind
}

// oracleGolden pins the one-shard fingerprint of every oracle scenario to
// the values the deleted sequential engine (Network.Step at commit 840be5e,
// before it became the one-shard case of the sharded stepper) produced on
// amd64 — except the energy triples, which are those of the settlement at
// ejection (Packet.settleEnergy) that replaced per-hop float accumulation:
// equal to that engine's within one part in 1e15, in seven scenarios to the
// last bit of the sum. "1 shard = N shards" alone would pass if both were wrong the same
// way; these constants keep the retired engine as the reference. A change
// that moves simulated behaviour on purpose re-records them: the failure
// message prints the literal.
var oracleGolden = map[string]oracleFingerprint{
	"uniform-parallel-mesh": {structHash: 0xcd07f0a1821f9ea2, energy: [3]float64{2.758329600000001e+06, 944825.6000000011, 1.813504e+06},
		injected: 1751, delivered: 1751, vaFailures: 0x5f, grants: [8]uint64{0x1d500, 0x6eb0, 0x0, 0x0, 0x6d70}},
	"uniform-serial-torus": {structHash: 0x3ce2995689fc1c70, energy: [3]float64{5.056409599999999e+06, 703999.9999999983, 4.352409600000077e+06},
		injected: 1751, delivered: 1751, vaFailures: 0x15, grants: [8]uint64{0x155e0, 0x0, 0x6eb0, 0x0, 0x6d70}},
	"hetero-phy-torus": {structHash: 0x135d3e259b78c12e, energy: [3]float64{2.7932736000000015e+06, 944825.6000000011, 1.8484480000000002e+06},
		injected: 1751, delivered: 1751, vaFailures: 0x67, grants: [8]uint64{0x1d500, 0x0, 0x0, 0x6eb0, 0x6d70}},
	"uniform-serial-hypercube": {structHash: 0xc4bd4f4236321946, energy: [3]float64{5.123542399999993e+06, 771132.7999999976, 4.352409600000077e+06},
		injected: 1751, delivered: 1751, vaFailures: 0x7a1, grants: [8]uint64{0x17950, 0x0, 0x6eb0, 0x0, 0x6d70}},
	"hetero-channel": {structHash: 0x9fbdc00dcf913053, energy: [3]float64{2.758329600000001e+06, 944825.6000000011, 1.813504e+06},
		injected: 1751, delivered: 1751, vaFailures: 0x69, grants: [8]uint64{0x1d500, 0x6eb0, 0x0, 0x0, 0x6d70}},
	"hetero-phy-torus/faults+retry": {structHash: 0xbe6f78d4945479b5, energy: [3]float64{2.798739199999999e+06, 944825.6000000011, 1.8539136e+06},
		injected: 1751, delivered: 1751, vaFailures: 0x5f, grants: [8]uint64{0x1d500, 0x0, 0x0, 0x6eb0, 0x6d70}},
	"collective/healthy": {structHash: 0xe6bba9416bbbda91, energy: [3]float64{135475.19999999995, 37171.19999999998, 98304},
		injected: 120, delivered: 120, grants: [8]uint64{0x1200, 0x0, 0x0, 0x600, 0x600}},
	"collective/faults+failover": {structHash: 0x4f50ae622c0c40a5, energy: [3]float64{264499.20000000007, 37171.19999999998, 227328.00000000026},
		injected: 120, delivered: 120, grants: [8]uint64{0x1200, 0x0, 0x0, 0x600, 0x600}},
}

// checkOracleGolden compares a one-shard fingerprint with its pinned value.
// The energies are products and sums of float64s, which arm64 and friends
// may fuse, so the constants are only binding where they were recorded.
func checkOracleGolden(t *testing.T, key string, got oracleFingerprint) {
	t.Helper()
	if runtime.GOARCH != "amd64" {
		return
	}
	if want, ok := oracleGolden[key]; !ok || got != want {
		t.Errorf("one-shard run diverged from the pinned sequential-engine fingerprint %q:\n got %#v\nwant %#v", key, got, want)
	}
}

// oracleSpec is the shape of an oracle scenario: 2×2 chiplets of 4×4 — the
// 64 nodes oracleGolden was recorded on, one wake word and so one shard
// with routers at any shard count — or, sharded, 4×2 chiplets: 128 nodes
// whose chiplet-row cut at 64 is the word boundary, so N-shard runs step
// two shards that hold routers.
func oracleSpec(sys topology.System, sharded bool) topology.Spec {
	spec := topology.Spec{System: sys, ChipletsX: 2, ChipletsY: 2, NodesX: 4, NodesY: 4}
	if sharded {
		spec.ChipletsX = 4
	}
	return spec
}

// arrivalDigest is a point hook's view of a run: it wraps the stats sink
// with an order-sensitive FNV-1a digest of every delivered packet. Sinks run
// in deterministic coordinator order, so any reordering, loss, duplication
// or field corruption introduced by parallel stepping changes the hash.
type arrivalDigest struct {
	fp  oracleFingerprint
	h   hash.Hash64
	net *network.Network
}

// hook returns the point hook that installs the digest. full adds each
// packet's length, class and hop mix to its identity and timing.
func (d *arrivalDigest) hook(full bool) func(*Instance) error {
	return func(in *Instance) error {
		d.h, d.net = fnv.New64a(), in.Net
		var buf [8]byte
		put := func(v uint64) {
			binary.LittleEndian.PutUint64(buf[:], v)
			d.h.Write(buf[:])
		}
		prev := in.Net.Sink
		in.Net.Sink = func(p *network.Packet) {
			d.fp.addEnergy(p)
			put(p.ID)
			put(uint64(uint32(p.Src))<<32 | uint64(uint32(p.Dst)))
			if full {
				put(uint64(p.Length)<<8 | uint64(p.Class))
			}
			put(uint64(p.CreatedAt))
			put(uint64(p.InjectedAt))
			put(uint64(p.ArrivedAt))
			if full {
				put(uint64(uint32(p.HopsOnChip))<<32 | uint64(uint32(p.HopsParallel)))
				put(uint64(uint32(p.HopsSerial))<<32 | uint64(uint32(p.HopsHetero)))
			}
			prev(p)
		}
		return nil
	}
}

// fingerprint closes the digest with the network's end-of-run totals.
func (d *arrivalDigest) fingerprint() oracleFingerprint {
	d.fp.finish(d.h.Sum64(), d.net)
	return d.fp
}

// oracleRun executes one full build+run+drain at the given worker count and
// returns its fingerprint. With faults set it layers the seeded error model
// and link-layer retry on top, which also checks delivered-packet integrity.
func oracleRun(t *testing.T, spec topology.Spec, workers int, faults bool) oracleFingerprint {
	t.Helper()
	cfg := shortCfg()
	cfg.SimCycles = 3000
	cfg.Workers = workers
	var d arrivalDigest
	pt := simPoint{
		Name: spec.System.String(), Cfg: cfg, Spec: spec, Hook: d.hook(true),
		Pattern: traffic.Uniform{}, Rate: 0.15, Drain: true,
	}
	if faults {
		pt.Faults = &fault.Config{SerialBER: 2e-4, ParallelBER: 2e-6, Seed: 7}
	}
	if _, err := pt.run(); err != nil {
		t.Fatalf("workers=%d: %v", workers, err)
	}
	return d.fingerprint()
}

func parseOracleWorkers(t *testing.T) []int {
	var ws []int
	for _, f := range strings.Split(*oracleWorkers, ",") {
		f = strings.TrimSpace(f)
		if f == "" {
			continue
		}
		n, err := strconv.Atoi(f)
		if err != nil || n < 2 {
			t.Fatalf("-oracle.workers: bad worker count %q", f)
		}
		ws = append(ws, n)
	}
	if len(ws) == 0 {
		t.Fatal("-oracle.workers: empty")
	}
	return ws
}

// TestParallelOracle is the cross-worker-count bit-identity oracle for the
// parallel stepper: on every Table-2 system (128 nodes, 4×2 chiplets of
// 4×4), a full run+drain at each -oracle.workers count must reproduce the
// one-shard run's fingerprint exactly — arrival stream, energies, hop
// mix, VC-allocation failures, grant mix — with credits conserved. A final
// variant re-runs the hetero-PHY torus with the seeded fault model and
// link-layer retry active, so retransmission timing also goes through the
// sharded engine. A one-shard run of each scenario's 64-node shape is
// checked against oracleGolden. The CI race job runs this test under -race
// (Workers: n always means real goroutines), which upgrades bit-identity
// into a data-race check on the shard ownership discipline.
func TestParallelOracle(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-run oracle skipped in -short mode")
	}
	counts := parseOracleWorkers(t)
	check := func(t *testing.T, key string, sys topology.System, faults bool) {
		checkOracleGolden(t, key, oracleRun(t, oracleSpec(sys, false), 1, faults))
		want := oracleRun(t, oracleSpec(sys, true), 1, faults)
		if want.delivered == 0 || want.delivered != want.injected {
			t.Fatalf("one-shard reference degenerate: delivered %d of %d", want.delivered, want.injected)
		}
		for _, w := range counts {
			if got := oracleRun(t, oracleSpec(sys, true), w, faults); got != want {
				t.Errorf("workers=%d diverged from one shard:\n got %+v\nwant %+v", w, got, want)
			}
		}
	}
	for _, sys := range []topology.System{
		topology.UniformParallelMesh,
		topology.UniformSerialTorus,
		topology.HeteroPHYTorus,
		topology.UniformSerialHypercube,
		topology.HeteroChannel,
	} {
		t.Run(sys.String(), func(t *testing.T) { check(t, sys.String(), sys, false) })
	}
	t.Run("hetero-phy-torus/faults+retry", func(t *testing.T) {
		check(t, "hetero-phy-torus/faults+retry", topology.HeteroPHYTorus, true)
	})
}
