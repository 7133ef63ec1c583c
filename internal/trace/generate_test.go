package trace

import (
	"cmp"
	"encoding/binary"
	"hash/fnv"
	"slices"
	"strings"
	"testing"
)

// traceDigest is FNV-1a over the header and every record, independent of
// Write so a change to the serializer cannot hide a change to a generator.
func traceDigest(t *Trace) uint64 {
	h := fnv.New64a()
	var b [21]byte
	h.Write([]byte(t.Name))
	binary.LittleEndian.PutUint32(b[0:], uint32(t.Ranks))
	binary.LittleEndian.PutUint64(b[4:], uint64(t.Cycles))
	binary.LittleEndian.PutUint64(b[12:], uint64(len(t.Records)))
	h.Write(b[:20])
	for i := range t.Records {
		r := &t.Records[i]
		binary.LittleEndian.PutUint64(b[0:], uint64(r.Time))
		binary.LittleEndian.PutUint32(b[8:], uint32(r.Src))
		binary.LittleEndian.PutUint32(b[12:], uint32(r.Dst))
		binary.LittleEndian.PutUint32(b[16:], uint32(r.Flits))
		b[20] = r.Class
		h.Write(b[:])
	}
	return h.Sum64()
}

// generatorGolden pins the packet stream every trace figure replays: record
// counts and digests of each generator at two seeds and two lengths (one of
// them cutting the last HPC step short), recorded at 85f532a with
// sort.SliceStable as the sort.
var generatorGolden = []struct {
	name    string
	cycles  int64
	seed    int64
	records int
	digest  uint64
}{
	{"cns", 4300, 1, 52202, 0x61383b2d42add476},
	{"moc", 4300, 1, 47347, 0x7b8e045ee68933b4},
	{"cns", 16000, 1, 176128, 0x8d3fe9aceb66fe3b},
	{"moc", 16000, 1, 176128, 0x40dbcc99e40edff6},
	{"parsec-blackscholes", 1500, 1, 460, 0xe5ed6e8c930da8e3},
	{"parsec-bodytrack", 1500, 1, 1102, 0xf48a74e5d2cb2ffd},
	{"parsec-canneal", 1500, 1, 5158, 0x92181efe556efd51},
	{"parsec-dedup", 1500, 1, 3222, 0x1966a569215e62ea},
	{"parsec-ferret", 1500, 1, 1794, 0xaceee95b8d47a62c},
	{"parsec-fluidanimate", 1500, 1, 1508, 0x9292ec846163b11b},
	{"parsec-swaptions", 1500, 1, 280, 0x7e5b4fa795337480},
	{"parsec-vips", 1500, 1, 2032, 0x0fc84b37d3c64014},
	{"parsec-x264", 1500, 1, 3874, 0xaf44129b8074f434},
	{"parsec-blackscholes", 5000, 1, 1512, 0xd22616b7b8831ed9},
	{"parsec-bodytrack", 5000, 1, 3978, 0x155744c09c827ad3},
	{"parsec-canneal", 5000, 1, 16746, 0x223cb0208bb8aae3},
	{"parsec-dedup", 5000, 1, 10534, 0x9178da262da5b942},
	{"parsec-ferret", 5000, 1, 6270, 0x7a24c85b13ac6f4c},
	{"parsec-fluidanimate", 5000, 1, 5104, 0xc1b832596827304a},
	{"parsec-swaptions", 5000, 1, 988, 0x8283030d0fec2544},
	{"parsec-vips", 5000, 1, 6636, 0xf58e91ce8a739941},
	{"parsec-x264", 5000, 1, 12556, 0x8b5f19f936ab0ef1},
	{"cns", 4300, 7, 52347, 0x80137899f60888fe},
	{"moc", 4300, 7, 47304, 0x9953a062f35975ca},
	{"cns", 16000, 7, 176128, 0xfcd7f9495a4b5dc2},
	{"moc", 16000, 7, 176128, 0x831075c0c8274117},
	{"parsec-blackscholes", 1500, 7, 472, 0x0a305705d2589589},
	{"parsec-bodytrack", 1500, 7, 1264, 0xe08dab555863f15f},
	{"parsec-canneal", 1500, 7, 5188, 0xae28d0a52086e813},
	{"parsec-dedup", 1500, 7, 3324, 0xe1e5fce3d5d24dde},
	{"parsec-ferret", 1500, 7, 1950, 0x6d1c1e59af4f5ffc},
	{"parsec-fluidanimate", 1500, 7, 1536, 0xbbd18086c0a4a795},
	{"parsec-swaptions", 1500, 7, 320, 0xc7240085cc3cd290},
	{"parsec-vips", 1500, 7, 2070, 0x50e8a05f31a39cc3},
	{"parsec-x264", 1500, 7, 3730, 0x6d21519ff685d755},
	{"parsec-blackscholes", 5000, 7, 1578, 0x906a3ff770ae7324},
	{"parsec-bodytrack", 5000, 7, 3962, 0x38066e28ed87b298},
	{"parsec-canneal", 5000, 7, 16874, 0x47dd0909c5de0d03},
	{"parsec-dedup", 5000, 7, 11042, 0xe96ed554d8ac80ba},
	{"parsec-ferret", 5000, 7, 6520, 0xd5a4f6355be49dfd},
	{"parsec-fluidanimate", 5000, 7, 5292, 0xf34c1aa6429a14b2},
	{"parsec-swaptions", 5000, 7, 1010, 0xc0b031d5bdd963b3},
	{"parsec-vips", 5000, 7, 6872, 0x4d1a4338eb928d48},
	{"parsec-x264", 5000, 7, 12374, 0xc188792f98fec9e3},
}

func TestGeneratorGolden(t *testing.T) {
	for _, g := range generatorGolden {
		var tr *Trace
		switch g.name {
		case "cns":
			tr = GenerateCNS(g.cycles, g.seed)
		case "moc":
			tr = GenerateMOC(g.cycles, g.seed)
		default:
			var err error
			if tr, err = GeneratePARSEC(strings.TrimPrefix(g.name, "parsec-"), g.cycles, g.seed); err != nil {
				t.Fatal(err)
			}
		}
		if len(tr.Records) != g.records || traceDigest(tr) != g.digest {
			t.Errorf("%s cycles=%d seed=%d: %d records, digest %#016x; want %d, %#016x",
				g.name, g.cycles, g.seed, len(tr.Records), traceDigest(tr), g.records, g.digest)
		}
	}
}

// TestHPCGeneratorsReserveOnce: the HPC generators allocate a constant
// number of times whatever the length (4300 cuts the last step short), and
// when the length is a whole number of steps the one reservation of Records
// is exact.
func TestHPCGeneratorsReserveOnce(t *testing.T) {
	gens := map[string]func(int64, int64) *Trace{"cns": GenerateCNS, "moc": GenerateMOC}
	for name, gen := range gens {
		for _, cycles := range []int64{4300, 16000, 32000} {
			tr := gen(cycles, 1)
			if cycles%2000 == 0 && cap(tr.Records) != len(tr.Records) {
				t.Errorf("%s/%d: cap %d != len %d", name, cycles, cap(tr.Records), len(tr.Records))
			}
			if n := testing.AllocsPerRun(3, func() { gen(cycles, 1) }); n > 8 {
				t.Errorf("%s/%d: %v allocations per call, want <= 8", name, cycles, n)
			}
		}
	}
}

// TestHPCHeadIsPrefix: a CNS or MOC trace cut at keep cycles is the
// full-length trace's records before keep, in the same order, at keep
// values on, just before and just after step and window boundaries, for
// whole-step and cut-short lengths; and the count pass reads the flit total
// of the trace it would generate. A keep at or past the end is clamped to
// the full length, as a replay that needs all of a trace does.
func TestHPCHeadIsPrefix(t *testing.T) {
	gens := []struct {
		name       string
		gen        func(int64, int64) *Trace
		flits      func(int64, int64) int64
		step, span int64
	}{
		{"cns", GenerateCNS, CNSFlits, cnsStep, cnsSpan},
		{"moc", GenerateMOC, MOCFlits, mocStep, mocSpan},
	}
	for _, g := range gens {
		for _, cycles := range []int64{4300, 16000, 16123} {
			full := g.gen(cycles, 3)
			if got, want := g.flits(cycles, 3), full.TotalFlits(); got != want {
				t.Errorf("%s/%d: count pass reads %d flits, the trace holds %d", g.name, cycles, got, want)
			}
			var keeps []int64
			for _, b := range []int64{0, g.span, g.step, 2 * g.step, cycles} {
				keeps = append(keeps, b-1, b, b+1)
			}
			keeps = append(keeps, g.step+g.span/2, 2*cycles)
			for _, keep := range keeps {
				if keep < 0 {
					continue
				}
				head := g.gen(min(keep, cycles), 3)
				n, _ := slices.BinarySearchFunc(full.Records, keep, func(r Record, k int64) int { return cmp.Compare(r.Time, k) })
				if !slices.Equal(head.Records, full.Records[:n]) {
					t.Errorf("%s/%d keep=%d: head of %d records is not the %d records before keep", g.name, cycles, keep, len(head.Records), n)
				}
				if got, want := g.flits(min(keep, cycles), 3), head.TotalFlits(); got != want {
					t.Errorf("%s/%d keep=%d: count pass reads %d flits, the head holds %d", g.name, cycles, keep, got, want)
				}
			}
		}
	}
}

var (
	benchSink *Trace
	flitsSink int64
)

// BenchmarkGenerate is the trace layer's in-package ledger: generation
// (records built, then sorted) at the Tiny and default fig13 lengths, and
// the HPC count passes (cns-count, moc-count), which run the generators'
// loops without storing a record.
func BenchmarkGenerate(b *testing.B) {
	gens := []struct {
		name string
		gen  func(cycles int64) *Trace
	}{
		{"cns", func(c int64) *Trace { return GenerateCNS(c, 1) }},
		{"moc", func(c int64) *Trace { return GenerateMOC(c, 1) }},
		{"parsec-canneal", func(c int64) *Trace {
			tr, _ := GeneratePARSEC("canneal", c, 1) // a listed workload cannot fail
			return tr
		}},
	}
	for _, g := range gens {
		for _, l := range []struct {
			name   string
			cycles int64
		}{{"16k", 16000}, {"80k", 80000}} {
			b.Run(g.name+"/"+l.name, func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					benchSink = g.gen(l.cycles)
				}
				b.ReportMetric(float64(len(benchSink.Records))*float64(b.N)/b.Elapsed().Seconds(), "records/s")
			})
		}
	}
	counts := []struct {
		name  string
		flits func(cycles, seed int64) int64
	}{{"cns-count", CNSFlits}, {"moc-count", MOCFlits}}
	for _, c := range counts {
		for _, l := range []struct {
			name   string
			cycles int64
		}{{"16k", 16000}, {"80k", 80000}} {
			b.Run(c.name+"/"+l.name, func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					flitsSink = c.flits(l.cycles, 1)
				}
			})
		}
	}
}
