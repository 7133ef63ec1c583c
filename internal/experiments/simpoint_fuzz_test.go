package experiments

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"reflect"
	"regexp"
	"runtime"
	"slices"
	"strings"
	"testing"

	"heteroif/internal/collective"
	"heteroif/internal/core"
	"heteroif/internal/fault"
	"heteroif/internal/network"
	"heteroif/internal/phymodel"
	"heteroif/internal/topology"
	"heteroif/internal/traffic"
)

// FuzzSimPoint is the invariant oracle of simPoint.run. It decodes its
// bytes into a point — chiplet grid × NoC size × system, interface
// bandwidth and delay, VCs and buffer depths, packet length, Eq. 5 bias,
// pattern × rate or a collective program, policy, BER and a fault script —
// and runs it at 1, 2 and 4 shards and at a decoded fourth count up to 8,
// beyond the 64-node wake words of a small system. On every input:
//   - run returns nil or an error that names its cause (a refusal before
//     the first cycle, the watchdog, the drain or collective budget), never
//     panics, and never steps past those bounds;
//   - every shard count yields one fingerprint, one error and one
//     collective Report;
//   - a nil run delivered every packet exactly once with credits conserved,
//     its packet and link energy ledgers agree, and every adapter without
//     retry kept its reorder buffer within Eq. 1 plus one cycle of arrivals;
//   - Lemma 1: a fault-free run under virtual cut-through admission with
//     buffers at least a packet deep returns nil.
//
// Plain go test runs the named seed corpus, simCorpus.
func FuzzSimPoint(f *testing.F) {
	for _, s := range simCorpus {
		f.Add(s.c.encode())
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if testing.Short() {
			t.Skip("multi-run oracle skipped in -short mode")
		}
		t.Parallel()
		checkSimCase(t, decodeSimCase(data))
	})
}

// TestParallelOracle replays the Table 2 seeds of simCorpus through
// FuzzSimPoint's oracle: every shard count agrees on one fingerprint, and
// the 64-node one-shard run matches oracleGolden.
func TestParallelOracle(t *testing.T) {
	replaySeeds(t, "", "uniform-parallel-mesh", "uniform-serial-torus", "hetero-phy-torus",
		"uniform-serial-hypercube", "hetero-channel", "hetero-phy-torus/faults+retry")
}

// TestParallelOracleCollective replays the DNN training-step seeds: one
// collective Report at every shard count, and oracleGolden.
func TestParallelOracleCollective(t *testing.T) {
	replaySeeds(t, "collective/", "healthy", "faults+failover")
}

// TestEnergyConservation replays the seeds whose clean runs hold the packet
// and link energy ledgers (checkEnergyLedgers) to each other at every shard
// count, the failover rescue included.
func TestEnergyConservation(t *testing.T) {
	replaySeeds(t, "", "uniform-parallel-mesh", "uniform-serial-torus", "hetero-phy-torus",
		"uniform-serial-hypercube", "hetero-channel", "hetero-phy-torus/faults+retry", "hetero-phy-torus/failover+rescue")
}

// replaySeeds runs the simCorpus entry prefix+name through checkSimCase as
// the subtest name, for each name.
func replaySeeds(t *testing.T, prefix string, names ...string) {
	if testing.Short() {
		t.Skip("multi-run oracle skipped in -short mode")
	}
	for _, name := range names {
		i := slices.IndexFunc(simCorpus, func(s simSeed) bool { return s.name == prefix+name })
		if i < 0 {
			t.Fatalf("simCorpus has no seed %q", prefix+name)
		}
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			checkSimCase(t, simCorpus[i].c)
		})
	}
}

// simCase is one decoded input; every byte string decodes to one. Index 0
// of every table is the Table 2 value.
type simCase struct {
	System  uint8 // topology.System(System%5)
	Grid    uint8 // simGrids[Grid%8] chiplets
	NoC     uint8 // of simNoCs[NoC%8] nodes
	Links   uint8 // bandwidth simParBW[Links&3], simSerBW[Links>>2&3]; delay simParDelay[Links>>4&3], simSerDelay[Links>>6]
	VCs     uint8 // simVCs[VCs%4]
	Bufs    uint8 // per-VC depth simOnChipBufs[Bufs&3], simIfaceBufs[Bufs>>2&3]; bit 4: wormhole admission
	PktLen  uint8 // simLengths[PktLen%8]
	Bias    uint8 // Eq. 5 bias Bias/32 on the hetero-channel system; 0: none
	Pattern uint8 // traffic.Patterns()[Pattern%6]
	Rate    uint8 // offered load (Rate%101)/100, or a collective's payload
	Policy  uint8 // simPolicies[Policy%7]
	BER     uint8 // serial and parallel BER simBERs[BER%8]
	Script  uint8 // fault events, see faults
	Program uint8 // 0: synthetic; 1–3: a collective, see program
	Shards  uint8 // the fourth shard count, 8 − Shards%8
	Cycles  uint8 // SimCycles 100·(2 + Cycles%60), capped in point
	Seed    uint8 // Config.Seed − 1
}

var (
	simGrids      = [8][2]int{{2, 2}, {4, 2}, {2, 4}, {4, 4}, {2, 1}, {1, 2}, {3, 3}, {8, 2}}
	simNoCs       = [8][2]int{{4, 4}, {3, 3}, {2, 2}, {4, 2}, {2, 3}, {1, 1}, {2, 4}, {3, 2}}
	simParBW      = [4]int{2, 1, 4, 3}
	simSerBW      = [4]int{4, 2, 1, 8}
	simParDelay   = [4]int{5, 1, 2, 10}
	simSerDelay   = [4]int{20, 5, 40, 2}
	simVCs        = [4]int{2, 1, 3, 4}
	simOnChipBufs = [4]int{32, 2, 4, 16}
	simIfaceBufs  = [4]int{64, 2, 8, 16}
	simLengths    = [8]int{16, 1, 2, 4, 5, 8, 40, 100}
	simBERs       = [8][2]float64{{0, 0}, {2e-4, 2e-6}, {1e-5, 1e-7}, {1e-3, 1e-5}, {1e-2, 1e-4}, {1, 0}, {1e-4, 1e-6}, {5e-3, 5e-5}}
	// Constructors, not values: FailoverPolicy is stateful.
	simPolicies = [7]func() core.Policy{
		func() core.Policy { return nil },
		func() core.Policy { return core.PerformanceFirst{} },
		func() core.Policy { return core.EnergyEfficient{} },
		func() core.Policy { return core.ApplicationAware{} },
		func() core.Policy { return core.NewFailoverPolicy(nil) },
		func() core.Policy { return serialPreferred{} },
		func() core.Policy { return core.NewFailoverPolicy(serialPreferred{}) },
	}
)

func (c simCase) encode() []byte {
	b, _ := binary.Append(nil, binary.LittleEndian, c)
	return b
}

func decodeSimCase(data []byte) (c simCase) {
	b := make([]byte, binary.Size(c))
	copy(b, data)
	binary.Decode(b, binary.LittleEndian, &c)
	return c
}

// faults returns the background BER and one scripted event pattern, or nil
// when the case injects nothing.
func (c simCase) faults() *fault.Config {
	var ev []fault.Event
	switch c.Script % 8 {
	case 1:
		ev = serialDownAt(300)
	case 2: // one plain link dead from the start
		ev = []fault.Event{{Kind: fault.EventDown, Phy: fault.PhyLink, To: -1}}
	case 3: // serial PHYs flapping
		for from := int64(100); from < 2000; from += 400 {
			ev = append(ev, fault.Event{Kind: fault.EventDown, Link: -1, Phy: fault.PhySerial, From: from, To: from + 200})
		}
	case 4:
		ev = serialDownAt(0)
	case 5: // every link and PHY dead
		for _, phy := range []int8{fault.PhyLink, fault.PhyParallel, fault.PhySerial} {
			ev = append(ev, fault.Event{Kind: fault.EventDown, Link: -1, Phy: phy, To: -1})
		}
	case 6:
		ev = []fault.Event{{Kind: fault.EventBurst, Link: -1, Phy: fault.PhySerial, From: 200, To: 600, P: 0.3}}
	case 7:
		ev = []fault.Event{{Kind: fault.EventDegrade, Link: -1, Phy: fault.PhyParallel, To: -1, P: 1e-3}}
	}
	if ber := simBERs[c.BER%8]; ber[0] > 0 || ev != nil {
		return &fault.Config{SerialBER: ber[0], ParallelBER: ber[1], Seed: 7, Events: ev}
	}
	return nil
}

// program returns the collective workload, or nil for synthetic traffic.
func (c simCase) program() func([]network.NodeID) *collective.Program {
	size := 1 + int(c.Rate%64)
	switch c.Program % 4 {
	case 1:
		layers := []collective.Layer{{Name: "l0", Compute: 900, GradFlits: 96}, {Name: "l1", Compute: 1500, GradFlits: 160}}
		return func(l []network.NodeID) *collective.Program { return collective.DNNTraining(l, layers, 40) }
	case 2:
		return func(l []network.NodeID) *collective.Program { return collective.RingAllReduce(l, 4*size, 40) }
	case 3:
		return func(l []network.NodeID) *collective.Program { return collective.AllToAll(l, size, 4) }
	}
	return nil
}

// point declares the case at one shard count. Systems have at most 256
// nodes. Synthetic runs are capped at 800k node-cycles and 160k offered
// flits. A fault-free run drains within 200k cycles even at one flit per
// cycle (shortCfg's 30,000 is too few: saturated bit-complement on 2×2
// chiplets of 2×2 with one VC and 1-flit/cycle interfaces drains for
// 34,199 cycles after 6,100); a faulted one, which may crawl, gets 5,000.
func (c simCase) point(shards int) simPoint {
	g, n := simGrids[c.Grid%8], simNoCs[c.NoC%8]
	spec := topology.Spec{System: topology.System(c.System % 5), ChipletsX: g[0], ChipletsY: g[1], NodesX: n[0], NodesY: n[1],
		Policy: simPolicies[c.Policy%7]()}
	nodes := int64(g[0] * g[1] * n[0] * n[1])
	cfg := shortCfg()
	cfg.ParallelBandwidth, cfg.SerialBandwidth = simParBW[c.Links&3], simSerBW[c.Links>>2&3]
	cfg.ParallelDelay, cfg.SerialDelay = simParDelay[c.Links>>4&3], simSerDelay[c.Links>>6]
	cfg.VCs, cfg.PacketLength = simVCs[c.VCs%4], simLengths[c.PktLen%8]
	cfg.OnChipBufPerVC, cfg.IfaceBufPerVC = simOnChipBufs[c.Bufs&3], simIfaceBufs[c.Bufs>>2&3]
	cfg.WormholeAdmission = c.Bufs&16 != 0
	cfg.Seed, cfg.Workers = 1+int64(c.Seed), shards
	rate := float64(c.Rate%101) / 100
	cfg.SimCycles = min(100*(2+int64(c.Cycles%60)), 800_000/nodes)
	if rate > 0 {
		cfg.SimCycles = min(cfg.SimCycles, int64(160_000/rate)/nodes)
	}
	cfg.WarmupCycles = min(cfg.WarmupCycles, cfg.SimCycles/2)
	cfg.DrainCycles = 200_000
	pt := simPoint{Name: spec.System.String(), Cfg: cfg, Spec: spec, Faults: c.faults(), Drain: true}
	if pt.Faults != nil {
		pt.Cfg.DrainCycles = 5000
	}
	if spec.System == topology.HeteroChannel {
		pt.Bias = float64(c.Bias) / 32
	}
	if pt.Program = c.program(); pt.Program != nil {
		// Closed-loop runs measure the whole transient.
		pt.Cfg.WarmupCycles, pt.Budget = 0, 1<<15
	} else {
		pt.Pattern, pt.Rate = traffic.Patterns(int(nodes), cfg.Seed)[c.Pattern%6], rate
	}
	return pt
}

// simRun is what one run left: what is compared across shard counts and
// what the named seeds check.
type simRun struct {
	fp             oracleFingerprint
	err            string
	report         collective.Report
	stepped        bool // the hook ran: the point was not refused
	trips, rescued uint64
}

// diagnostic matches the errors a built point may end in; each names why.
var diagnostic = regexp.MustCompile(`deadlock detected at cycle|routing livelock at cycle|drain: drained=false|incomplete after`)

// run runs the case at one shard count and checks what holds for that run
// alone.
func (c simCase) run(t *testing.T, shards int) (r simRun) {
	t.Helper()
	pt := c.point(shards)
	tag := fmt.Sprintf("%+v at %d shards", c, shards)
	var in *Instance
	var chk *fault.IntegrityChecker
	var finish func()
	pt.Hook = func(i *Instance) error {
		in, chk = i, fault.NewIntegrityChecker(i.Net)
		checkSettlement(t, tag, i)
		// The collective constants of oracleGolden hash identity and
		// timing only.
		finish = r.fp.digest(i.Net, pt.Program == nil)
		return nil
	}
	out, err := pt.run()
	if in == nil {
		if err == nil {
			t.Fatalf("%s: run returned nil without running", tag)
		}
		return simRun{err: err.Error()}
	}
	finish()
	r.stepped, r.report, r.trips = true, out.Report, out.Trips
	if limit := pt.Cfg.SimCycles + pt.Budget + pt.Cfg.DrainCycles; in.Net.Now > limit {
		t.Errorf("%s: ran to cycle %d, past its bound %d", tag, in.Net.Now, limit)
	}
	if err != nil {
		if r.err = err.Error(); !diagnostic.MatchString(r.err) {
			t.Errorf("%s: run ended in %q, which names no known cause", tag, r.err)
		}
		return r
	}
	if err := chk.Check(in.Net); err != nil {
		t.Errorf("%s: %v", tag, err)
	}
	r.rescued = checkEnergyLedgers(t, tag, in, r.fp)
	cfg := &in.Net.Cfg
	bound := phymodel.ROBCapacity(cfg.ParallelBandwidth, cfg.SerialDelay, cfg.ParallelDelay) +
		phymodel.ROBCapacity(cfg.SerialBandwidth, cfg.ParallelDelay, cfg.SerialDelay) + cfg.ParallelBandwidth + cfg.SerialBandwidth
	for _, ad := range in.Topo.Adapters {
		if ad.ParallelRetry() == nil && ad.SerialRetry() == nil && ad.MaxROBOccupancy() > bound {
			t.Errorf("%s: a reorder buffer held %d flits, over Eq. 1 plus one cycle of arrivals (%d)", tag, ad.MaxROBOccupancy(), bound)
		}
	}
	return r
}

// checkSimCase runs one case at every shard count and compares the runs.
func checkSimCase(t *testing.T, c simCase) {
	want := c.run(t, 1)
	cfg := c.point(1).Cfg
	lemma1 := c.faults() == nil && !cfg.WormholeAdmission
	for _, k := range []network.LinkKind{network.KindOnChip, network.KindParallel, network.KindSerial, network.KindHeteroPHY} {
		lemma1 = lemma1 && cfg.BufPerVC(k) >= cfg.PacketLength
	}
	if lemma1 && want.stepped && want.err != "" {
		t.Fatalf("%+v: Lemma 1: a fault-free virtual cut-through run with packet-deep buffers failed: %s", c, want.err)
	}
	checkSeed(t, c, want)
	if !want.stepped {
		return // refused before its first cycle, whatever the shard count
	}
	counts := []int{2, 4}
	if n := 8 - int(c.Shards%8); n != 1 && n != 2 && n != 4 {
		counts = append(counts, n)
	}
	for _, n := range counts {
		if got := c.run(t, n); got.fp != want.fp || got.err != want.err || !reflect.DeepEqual(got.report, want.report) {
			t.Errorf("%+v: %d shards diverged from one:\n got %+v, error %q, report %+v\nwant %+v, error %q, report %+v",
				c, n, got.fp, got.err, got.report, want.fp, want.err, want.report)
		}
	}
}

// checkSeed holds a named corpus entry to its expected outcome, and a
// pinned one to oracleGolden.
func checkSeed(t *testing.T, c simCase, r simRun) {
	for _, s := range simCorpus {
		if s.c != c {
			continue
		}
		t.Logf("%s: %d of %d packets delivered, error %q", s.name, r.fp.delivered, r.fp.injected, r.err)
		switch {
		case s.want == "" && (r.err != "" || r.fp.delivered == 0):
			t.Errorf("%s: want a clean, non-empty run: %q, delivered %d of %d", s.name, r.err, r.fp.delivered, r.fp.injected)
		case s.want != "" && !strings.Contains(r.err, s.want):
			t.Errorf("%s: run ended in %q, want the diagnostic %q", s.name, r.err, s.want)
		case s.rescue && (r.trips == 0 || r.rescued == 0):
			t.Errorf("%s: failover tripped %d times and rescued %d flits: the failover path was not exercised", s.name, r.trips, r.rescued)
		}
		// The energies are float64 products and sums, which other
		// architectures may fuse, so the constants bind on amd64 only.
		if golden, ok := oracleGolden[s.name]; ok && runtime.GOARCH == "amd64" {
			small := c
			small.Grid = 0
			if got := small.run(t, 1).fp; got != golden {
				t.Errorf("%s: the one-shard run on 64 nodes diverged from its pinned fingerprint:\n got %#v\nwant %#v", s.name, got, golden)
			}
		}
	}
}

// checkSettlement wraps the sink with the per-packet energy identities: the
// total is on-chip plus interface, and on a system of plain links without
// retry, where every flit follows the head, the settlement has a closed
// form in Length and the hop counters.
func checkSettlement(t *testing.T, tag string, in *Instance) {
	cfg, closed := &in.Net.Cfg, len(in.Topo.Adapters) == 0
	for _, l := range in.Net.Links {
		closed = closed && l.Retry() == nil
	}
	prev := in.Net.Sink
	in.Net.Sink = func(p *network.Packet) {
		if p.EnergyPJ != p.EnergyOnChipPJ+p.EnergyIfacePJ {
			t.Errorf("%s: packet %d: total %v pJ is not on-chip %v + interface %v", tag, p.ID, p.EnergyPJ, p.EnergyOnChipPJ, p.EnergyIfacePJ)
		}
		if closed {
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
}

// checkEnergyLedgers compares what the packets were charged, summed in sink
// order into fp, with what the links say they carried: the per-flit
// traversal counts settled into Packet.Energy*PJ at ejection against the
// link-side counters (Link.SentTotal, the adapters' per-PHY issue counts,
// the retry pipes' Stats, Network.GrantsByKind). After a full drain every
// flit that crossed a channel has been ejected, so
//
//	Σ EnergyIfacePJ  = Σ_c traversals_c × FlitPJ(c),  c ∈ {parallel, serial}
//	Σ EnergyOnChipPJ = on-chip traversals × FlitPJ(on-chip) + Σ grants × RouterPJPerFlit
//
// within float rounding. A retry pipe charges a flit every transmission up
// to the one that was delivered, or evicted by failover. A nack rewinds the
// sender to the first undelivered flit, so only a timeout rewind can send a
// copy after that one, which no packet pays for: a pipe without timeouts
// carried exactly its Stats.Transmits, one with them at least
// Stats.Delivered and at most Stats.Transmits. It returns how many flits
// failover rescued.
func checkEnergyLedgers(t *testing.T, tag string, in *Instance, fp oracleFingerprint) (rescued uint64) {
	net, cfg := in.Net, &in.Net.Cfg
	var lo, hi [3]uint64 // traversals by kind: on-chip, parallel, serial
	add := func(k network.LinkKind, rp *network.RetryPipe, sent uint64) {
		switch {
		case rp == nil:
			lo[k], hi[k] = lo[k]+sent, hi[k]+sent
		case rp.Stats.Timeouts == 0:
			lo[k], hi[k] = lo[k]+rp.Stats.Transmits, hi[k]+rp.Stats.Transmits
		default:
			lo[k], hi[k] = lo[k]+rp.Stats.Delivered, hi[k]+rp.Stats.Transmits
		}
	}
	for _, l := range net.Links {
		ad, _ := l.Adapter.(*core.HeteroPHYAdapter)
		if ad == nil {
			add(l.Kind, l.Retry(), l.SentTotal)
			continue
		}
		if issued := ad.ParallelFlits() + ad.SerialFlits(); l.SentTotal != issued {
			t.Errorf("%s: hetero-PHY link %d accepted %d flits, its adapter issued %d", tag, l.ID, l.SentTotal, issued)
		}
		rescued += ad.Rescued() // rescued flits re-enter the parallel PHY
		add(network.KindParallel, ad.ParallelRetry(), ad.ParallelFlits()+ad.Rescued())
		add(network.KindSerial, ad.SerialRetry(), ad.SerialFlits())
	}
	var grants uint64
	for _, g := range net.GrantsByKind {
		grants += g
	}
	routers := float64(grants) * cfg.RouterPJPerFlit
	pj := func(n [3]uint64, kinds ...network.LinkKind) (e float64) {
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
	within("on-chip", fp.energy[1], routers+pj(lo, network.KindOnChip), routers+pj(hi, network.KindOnChip))
	within("interface", fp.energy[2], pj(lo, network.KindParallel, network.KindSerial), pj(hi, network.KindParallel, network.KindSerial))
	return rescued
}

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

// digest wraps the network's sink with an order-sensitive FNV-1a hash of
// every delivered packet and sums their energies into fp. Sinks run in
// deterministic coordinator order, so any reordering, loss, duplication or
// field corruption introduced by parallel stepping changes the hash. full
// adds each packet's length, class and hop mix to its identity and timing.
// The returned function closes fp with the network's end-of-run totals.
func (fp *oracleFingerprint) digest(net *network.Network, full bool) (finish func()) {
	h := fnv.New64a()
	prev := net.Sink
	net.Sink = func(p *network.Packet) {
		fp.energy[0] += p.EnergyPJ
		fp.energy[1] += p.EnergyOnChipPJ
		fp.energy[2] += p.EnergyIfacePJ
		w := []uint64{p.ID, uint64(uint32(p.Src))<<32 | uint64(uint32(p.Dst)), uint64(p.Length)<<8 | uint64(p.Class),
			uint64(p.CreatedAt), uint64(p.InjectedAt), uint64(p.ArrivedAt),
			uint64(uint32(p.HopsOnChip))<<32 | uint64(uint32(p.HopsParallel)), uint64(uint32(p.HopsSerial))<<32 | uint64(uint32(p.HopsHetero))}
		if !full {
			w = append(w[:2], w[3:6]...)
		}
		binary.Write(h, binary.LittleEndian, w)
		prev(p)
	}
	return func() {
		fp.structHash = h.Sum64()
		fp.injected, fp.delivered = net.PacketsInjected(), net.PacketsDelivered()
		fp.vaFailures, fp.grants = net.VAFailures, net.GrantsByKind
	}
}

// simSeed is a named corpus entry and its expected outcome.
type simSeed struct {
	name   string
	c      simCase
	want   string // the diagnostic it must end in; empty: a clean, non-empty run
	rescue bool   // failover must trip and rescue flits
}

// simCorpus is FuzzSimPoint's seed corpus; each entry runs at 1, 2, 4 and 8
// shards. Unnamed fields are Table 2 / shortCfg values; Cycles 28 is 3,000
// cycles.
var simCorpus = []simSeed{
	// Every Table 2 system under uniform 0.15 on 4×2 chiplets of 4×4, whose
	// chiplet-row cut at node 64 puts routers into two shards: plain, with
	// BER 2e-4 serial and 2e-6 parallel, and with a serial outage at cycle
	// 300 that a serial-insisting policy survives only through failover (a
	// rescued flit is charged on both PHYs).
	{name: "uniform-parallel-mesh", c: simCase{System: 0, Grid: 1, Rate: 15, Cycles: 28}},
	{name: "uniform-serial-torus", c: simCase{System: 1, Grid: 1, Rate: 15, Cycles: 28}},
	{name: "hetero-phy-torus", c: simCase{System: 2, Grid: 1, Rate: 15, Cycles: 28}},
	{name: "uniform-serial-hypercube", c: simCase{System: 3, Grid: 1, Rate: 15, Cycles: 28}},
	{name: "hetero-channel", c: simCase{System: 4, Grid: 1, Rate: 15, Cycles: 28}},
	{name: "hetero-phy-torus/faults+retry", c: simCase{System: 2, Grid: 1, Rate: 15, BER: 1, Cycles: 28}},
	{name: "hetero-phy-torus/failover+rescue", c: simCase{System: 2, Grid: 1, Rate: 15, Policy: 6, BER: 1, Script: 1, Cycles: 28}, rescue: true},
	// A two-layer DNN training step over the chiplet leaders, whose compute
	// phases fast-forward: healthy, and under the faults and outage above.
	{name: "collective/healthy", c: simCase{System: 2, Grid: 1, Program: 1}},
	{name: "collective/faults+failover", c: simCase{System: 2, Grid: 1, Program: 1, Policy: 6, BER: 1, Script: 1}, rescue: true},
	// Cube links, and adapter links whose TX and RX halves run in different
	// phases, for 6,000 cycles at 0.2.
	{name: "hetero-channel/6000", c: simCase{System: 4, Grid: 1, Rate: 20, Cycles: 58}},
	{name: "hetero-phy-torus/6000", c: simCase{System: 2, Grid: 1, Rate: 20, Cycles: 58}},
	// Scripted hostility on 64 nodes for 1,000 cycles. Without failover,
	// BER 1, a dead link and dead serial PHYs end in the watchdog, and so
	// does a ring all-reduce across a network with every link down; flapping
	// serial PHYs and a serial outage under failover deliver everything.
	{name: "hostile/ber-1", c: simCase{System: 2, Rate: 15, BER: 5, Cycles: 8}, want: "deadlock detected"},
	{name: "hostile/link-down-at-0", c: simCase{System: 0, Rate: 15, Script: 2, Cycles: 8}, want: "deadlock detected"},
	{name: "hostile/flapping-serial", c: simCase{System: 2, Rate: 15, Policy: 5, Script: 3, Cycles: 8}},
	{name: "hostile/serial-down", c: simCase{System: 2, Rate: 15, Policy: 5, Script: 4, Cycles: 8}, want: "deadlock detected"},
	{name: "hostile/serial-down+failover", c: simCase{System: 2, Rate: 15, Policy: 6, Script: 4, Cycles: 8}, rescue: true},
	{name: "hostile/partitioned-allreduce", c: simCase{System: 2, Program: 2, Rate: 15, Script: 5}, want: "deadlock detected"},
	// A serial PHY faster than the parallel one (2 against 5 cycles, both 2
	// flits per cycle) under performance-first: NewHeteroPHYAdapter sized
	// its reorder buffer from D_s − D_p and panicked on the negative
	// capacity.
	{name: "serial-faster-than-parallel", c: simCase{System: 2, Links: 3<<6 | 1<<2, Rate: 30, Policy: 1, Cycles: 28}},
	// Wormhole admission with 4-flit on-chip buffers voids Lemma 1's
	// precondition: the saturated hetero-channel system ends in the
	// watchdog.
	{name: "deadlock/wormhole", c: simCase{System: 4, Grid: 1, Bufs: 16 | 2 | 2<<2, Rate: 100, Cycles: 8}, want: "deadlock detected"},
}

// oracleGolden pins the fingerprint of a corpus entry's one-shard run on
// 2×2 chiplets (64 nodes, one wake word) to the values the deleted
// sequential engine (Network.Step at commit 840be5e, before it became the
// one-shard case of the sharded stepper) produced on amd64 — except the
// energy triples, which are those of the settlement at ejection
// (Packet.settleEnergy) that replaced per-hop float accumulation: equal to
// that engine's within one part in 1e15, in seven scenarios to the last
// bit of the sum. "1 shard = N shards" alone would pass if both were wrong
// the same way; these constants keep the retired engine as the reference.
// A change that moves simulated behaviour on purpose re-records them: the
// failure message prints the literal.
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
	// Recorded from the sharded stepper at one shard, not from the
	// sequential engine.
	"hetero-phy-torus/failover+rescue": {structHash: 0x97659a9c57cfb3d1, energy: [3]float64{4.768134399999989e+06, 944825.6000000009, 3.823308800000005e+06},
		injected: 1751, delivered: 1751, vaFailures: 0x5e, grants: [8]uint64{0x1d500, 0x0, 0x0, 0x6eb0, 0x6d70}},
	"collective/healthy": {structHash: 0xe6bba9416bbbda91, energy: [3]float64{135475.19999999995, 37171.19999999998, 98304},
		injected: 120, delivered: 120, grants: [8]uint64{0x1200, 0x0, 0x0, 0x600, 0x600}},
	"collective/faults+failover": {structHash: 0x4f50ae622c0c40a5, energy: [3]float64{264499.20000000007, 37171.19999999998, 227328.00000000026},
		injected: 120, delivered: 120, grants: [8]uint64{0x1200, 0x0, 0x0, 0x600, 0x600}},
}
