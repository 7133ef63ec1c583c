package trace

import (
	"bytes"
	"encoding/binary"
	"runtime"
	"slices"
	"strings"
	"testing"
	"testing/quick"
)

func TestPARSECWorkloadsGenerate(t *testing.T) {
	for _, wl := range PARSECWorkloads() {
		tr, err := GeneratePARSEC(wl, 5000, 1)
		if err != nil {
			t.Fatalf("%s: %v", wl, err)
		}
		if err := tr.Validate(); err != nil {
			t.Fatalf("%s: %v", wl, err)
		}
		if tr.Ranks != 64 {
			t.Fatalf("%s: %d ranks, want 64", wl, tr.Ranks)
		}
		if len(tr.Records) == 0 {
			t.Fatalf("%s: empty trace", wl)
		}
		// Bimodal packet sizes only: 1 flit (8 B) and 9 flits (72 B).
		long, short := 0, 0
		for i := range tr.Records {
			switch tr.Records[i].Flits {
			case 1:
				short++
			case 9:
				long++
			default:
				t.Fatalf("%s: packet length %d, want 1 or 9", wl, tr.Records[i].Flits)
			}
		}
		if long == 0 || short == 0 {
			t.Fatalf("%s: need both packet sizes, got %d short / %d long", wl, short, long)
		}
	}
}

func TestPARSECUnknownWorkload(t *testing.T) {
	if _, err := GeneratePARSEC("doom", 1000, 1); err == nil {
		t.Fatal("unknown workload accepted")
	}
}

func TestPARSECDeterministic(t *testing.T) {
	a, _ := GeneratePARSEC("canneal", 2000, 99)
	b, _ := GeneratePARSEC("canneal", 2000, 99)
	if len(a.Records) != len(b.Records) {
		t.Fatal("same seed produced different traces")
	}
	for i := range a.Records {
		if a.Records[i] != b.Records[i] {
			t.Fatalf("record %d differs", i)
		}
	}
}

func TestPARSECRelativeIntensity(t *testing.T) {
	// canneal is the cache-thrashing workload; blackscholes is compute
	// bound — their rates must reflect that (Netrace characterization).
	hot, _ := GeneratePARSEC("canneal", 5000, 1)
	cold, _ := GeneratePARSEC("blackscholes", 5000, 1)
	if hot.OfferedRate() <= 2*cold.OfferedRate() {
		t.Fatalf("canneal (%.4f) should be much hotter than blackscholes (%.4f)",
			hot.OfferedRate(), cold.OfferedRate())
	}
}

func TestCNSProperties(t *testing.T) {
	tr := GenerateCNS(100000, 1)
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	if tr.Ranks != 1024 {
		t.Fatalf("ranks = %d, want 1024", tr.Ranks)
	}
	if len(tr.Records) < 1000000 {
		t.Fatalf("CNS has %d packets, paper says over one million", len(tr.Records))
	}
	// Halo exchange: every destination is a 3D grid neighbor.
	for i := 0; i < len(tr.Records); i += 997 {
		r := &tr.Records[i]
		sx, sy, sz := coordsOf(r.Src)
		dx, dy, dz := coordsOf(r.Dst)
		md := abs(sx-dx) + abs(sy-dy) + abs(sz-dz)
		if md != 1 {
			t.Fatalf("CNS record %d: %d->%d is not a grid neighbor (dist %d)", i, r.Src, r.Dst, md)
		}
	}
}

func TestMOCProperties(t *testing.T) {
	tr := GenerateMOC(100000, 1)
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	if tr.Ranks != 1024 {
		t.Fatalf("ranks = %d, want 1024", tr.Ranks)
	}
	if len(tr.Records) < 1000000 {
		t.Fatalf("MOC has %d packets, paper says over one million", len(tr.Records))
	}
	// Sweep structure: a mix of neighbor and long-range messages.
	long := 0
	for i := range tr.Records {
		r := &tr.Records[i]
		sx, sy, sz := coordsOf(r.Src)
		dx, dy, dz := coordsOf(r.Dst)
		if abs(sx-dx)+abs(sy-dy)+abs(sz-dz) > 1 {
			long++
		}
	}
	frac := float64(long) / float64(len(tr.Records))
	if frac < 0.05 || frac > 0.5 {
		t.Fatalf("long-range fraction %.2f outside the expected MOC band", frac)
	}
}

func TestTraceRoundTrip(t *testing.T) {
	tr, _ := GeneratePARSEC("dedup", 2000, 5)
	var buf bytes.Buffer
	if err := tr.Write(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.Name != tr.Name || back.Ranks != tr.Ranks || back.Cycles != tr.Cycles {
		t.Fatalf("header mismatch: %+v vs %+v", back, tr)
	}
	if len(back.Records) != len(tr.Records) {
		t.Fatalf("record count %d vs %d", len(back.Records), len(tr.Records))
	}
	for i := range tr.Records {
		if back.Records[i] != tr.Records[i] {
			t.Fatalf("record %d differs after round trip", i)
		}
	}
}

func TestTraceRoundTripProperty(t *testing.T) {
	f := func(times []uint16, seed int64) bool {
		tr := &Trace{Name: "prop", Ranks: 8, Cycles: 1 << 17}
		for i, tm := range times {
			tr.Records = append(tr.Records, Record{
				Time:  int64(tm),
				Src:   int32(i % 8),
				Dst:   int32((i + 1) % 8),
				Flits: int32(i%15 + 1),
				Class: uint8(i % 4),
			})
		}
		tr.sortRecords()
		var buf bytes.Buffer
		if tr.Write(&buf) != nil {
			return false
		}
		back, err := Read(&buf)
		if err != nil {
			return false
		}
		if len(back.Records) != len(tr.Records) {
			return false
		}
		for i := range tr.Records {
			if back.Records[i] != tr.Records[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestReadRejectsGarbage(t *testing.T) {
	if _, err := Read(bytes.NewReader([]byte("not a trace file at all"))); err == nil {
		t.Fatal("garbage accepted")
	}
}

func TestValidateCatchesCorruption(t *testing.T) {
	tr := &Trace{Name: "x", Ranks: 4, Cycles: 100}
	tr.Records = []Record{{Time: 0, Src: 0, Dst: 9, Flits: 1}}
	if tr.Validate() == nil {
		t.Error("out-of-range rank accepted")
	}
	tr.Records = []Record{{Time: 0, Src: 1, Dst: 1, Flits: 1}}
	if tr.Validate() == nil {
		t.Error("self-send accepted")
	}
	tr.Records = []Record{{Time: 5, Src: 0, Dst: 1, Flits: 1}, {Time: 2, Src: 0, Dst: 1, Flits: 1}}
	if tr.Validate() == nil {
		t.Error("time disorder accepted")
	}
	tr.Records = []Record{{Time: 0, Src: 0, Dst: 1, Flits: 0}}
	if tr.Validate() == nil {
		t.Error("zero-length packet accepted")
	}
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

func TestPARSECAllGeneratesEveryWorkload(t *testing.T) {
	all, err := PARSECAll(1500, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(all) != len(PARSECWorkloads()) {
		t.Fatalf("generated %d of %d workloads", len(all), len(PARSECWorkloads()))
	}
	seen := map[string]bool{}
	for _, tr := range all {
		if seen[tr.Name] {
			t.Fatalf("duplicate trace %s", tr.Name)
		}
		seen[tr.Name] = true
		if len(tr.Records) == 0 {
			t.Fatalf("%s empty", tr.Name)
		}
	}
}

func TestOfferedRateDegenerate(t *testing.T) {
	tr := &Trace{Name: "d", Ranks: 0, Cycles: 0}
	if tr.OfferedRate() != 0 {
		t.Error("degenerate trace should offer 0")
	}
}

func TestReadRejectsTruncatedStream(t *testing.T) {
	tr, _ := GeneratePARSEC("vips", 1000, 1)
	var buf bytes.Buffer
	if err := tr.Write(&buf); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()
	for _, cut := range []int{4, 12, len(full) / 2, len(full) - 3} {
		if _, err := Read(bytes.NewReader(full[:cut])); err == nil {
			t.Errorf("truncation at %d bytes accepted", cut)
		}
	}
}

// goldenTrace and goldenBytes: what Write at 85f532a (reflective
// binary.Write per field) produced for this trace. The format is frozen.
var goldenTrace = Trace{Name: "gold", Ranks: 8, Cycles: 100, Records: []Record{
	{Time: 0, Src: 0, Dst: 1, Flits: 1, Class: 1},
	{Time: 3, Src: 2, Dst: 7, Flits: 9, Class: 0},
	{Time: 3, Src: 7, Dst: 2, Flits: 16, Class: 0},
	{Time: 99, Src: 5, Dst: 4, Flits: 8, Class: 3},
	{Time: 1 << 40, Src: 6, Dst: 0, Flits: 1 << 20, Class: 255},
}}

const goldenBytes = "HIFTRC01\x04\x00\x00\x00gold\b\x00\x00\x00d\x00\x00\x00\x00\x00\x00\x00\x05\x00\x00\x00\x00\x00\x00\x00" +
	"\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x01\x00\x00\x00\x01\x00\x00\x00\x01" +
	"\x03\x00\x00\x00\x00\x00\x00\x00\x02\x00\x00\x00\a\x00\x00\x00\t\x00\x00\x00\x00" +
	"\x03\x00\x00\x00\x00\x00\x00\x00\a\x00\x00\x00\x02\x00\x00\x00\x10\x00\x00\x00\x00" +
	"c\x00\x00\x00\x00\x00\x00\x00\x05\x00\x00\x00\x04\x00\x00\x00\b\x00\x00\x00\x03" +
	"\x00\x00\x00\x00\x00\x01\x00\x00\x06\x00\x00\x00\x00\x00\x00\x00\x00\x00\x10\x00\xff"

func TestGoldenBytesRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	if err := goldenTrace.Write(&buf); err != nil {
		t.Fatal(err)
	}
	if buf.String() != goldenBytes {
		t.Fatalf("Write changed the byte format:\n got %q\nwant %q", buf.String(), goldenBytes)
	}
	back, err := Read(strings.NewReader(goldenBytes))
	if err != nil {
		t.Fatal(err)
	}
	if back.Name != goldenTrace.Name || back.Ranks != goldenTrace.Ranks || back.Cycles != goldenTrace.Cycles {
		t.Fatalf("header mismatch: %+v", back)
	}
	if !slices.Equal(back.Records, goldenTrace.Records) {
		t.Fatalf("records %+v, want %+v", back.Records, goldenTrace.Records)
	}
}

// A header may claim 2^31 records and bring none: Read must report the
// truncation, not ask the allocator for 48 GiB first.
func TestReadHostileCountAllocatesLittle(t *testing.T) {
	hdr := []byte(goldenBytes[:len(magic)+4+4+4+8])
	hdr = binary.LittleEndian.AppendUint64(hdr, 1<<31)
	payload := goldenBytes[len(hdr) : len(hdr)+2*recordBytes]

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := Read(bytes.NewReader(hdr))
	runtime.ReadMemStats(&after)
	if err == nil || err.Error() != "trace: truncated after 0 of 2147483648 records" {
		t.Fatalf("empty payload: err = %v", err)
	}
	if d := after.TotalAlloc - before.TotalAlloc; d > 64<<20 {
		t.Fatalf("Read allocated %d MB on the header's word", d>>20)
	}
	// Truncation inside a record counts only whole records.
	_, err = Read(strings.NewReader(string(hdr) + payload + "\x01\x02"))
	if err == nil || err.Error() != "trace: truncated after 2 of 2147483648 records" {
		t.Fatalf("partial payload: err = %v", err)
	}
}
