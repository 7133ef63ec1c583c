package stats

import (
	"encoding/binary"
	"sort"
	"testing"
)

// sortedPercentile is the oracle: sort every sample and index it with the
// int(q·(n−1)) rule, clamped — what the collector did when it kept a slice
// of latencies.
func sortedPercentile(samples []int64, q float64) int64 {
	if len(samples) == 0 {
		return 0
	}
	s := append([]int64(nil), samples...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	idx := int(q * float64(len(s)-1))
	if idx < 0 {
		idx = 0
	}
	if idx >= len(s) {
		idx = len(s) - 1
	}
	return s[idx]
}

// FuzzPercentile reads the input as 4-byte packets: a class byte and a
// 24-bit latency. Bit 7 of the class byte shifts the latency 20 bits up
// (far past the dense bound), bit 6 negates it, and the low bits mod 9
// pick the class (8 is out of range). Percentile and ClassPercentile must
// equal the sort-and-index oracle at q. The seed corpus runs under plain
// `go test`.
func FuzzPercentile(f *testing.F) {
	for _, q := range []float64{0, 0.5, 0.99, 1} {
		f.Add([]byte{}, q)
		f.Add([]byte{2, 40, 0, 0}, q)                                              // one packet
		f.Add([]byte{1, 7, 0, 0, 1, 7, 0, 0, 3, 7, 0, 0, 1, 7, 0, 0}, q)           // all equal
		f.Add([]byte{0, 64, 66, 15, 1, 16, 0, 0, 0, 0, 0, 1, 1, 255, 255, 255}, q) // ≥ 10⁶
		f.Add([]byte{0x80, 1, 0, 0, 0xc1, 3, 0, 0, 0x42, 9, 0, 0, 5, 200, 1, 0}, q)
	}
	f.Fuzz(func(t *testing.T, data []byte, q float64) {
		c := &Collector{}
		var all []int64
		var byClass [9][]int64
		for i := 0; i+4 <= len(data); i += 4 {
			b := data[i]
			v := int64(binary.LittleEndian.Uint32(data[i:]) >> 8)
			if b&0x80 != 0 {
				v <<= 20
			}
			if b&0x40 != 0 {
				v = -v
			}
			class := (b & 0x3f) % 9
			c.Record(Measured{Class: class, ArrivedAt: v, Length: 1})
			all = append(all, v)
			byClass[class] = append(byClass[class], v)
		}
		if got, want := c.Percentile(q), sortedPercentile(all, q); got != want {
			t.Fatalf("Percentile(%v) = %d over %v, want %d", q, got, all, want)
		}
		for class := range byClass {
			want := sortedPercentile(byClass[class], q)
			if class == 8 {
				want = 0 // out of range: not aggregated
			}
			if got := c.ClassPercentile(uint8(class), q); got != want {
				t.Fatalf("ClassPercentile(%d, %v) = %d over %v, want %d", class, q, got, byClass[class], want)
			}
		}
	})
}

// TestRecordZeroAllocs: once the histograms cover the latencies seen,
// Record allocates nothing.
func TestRecordZeroAllocs(t *testing.T) {
	c := &Collector{}
	lats := []int64{0, 17, 42, 300, 4095, 1 << 20}
	for i, l := range lats {
		c.Record(Measured{Class: uint8(i % 4), ArrivedAt: l, Length: 4})
	}
	i := 0
	n := testing.AllocsPerRun(1000, func() {
		c.Record(Measured{Class: uint8(i % 4), ArrivedAt: lats[i%len(lats)], Length: 4})
		i++
	})
	if n != 0 {
		t.Fatalf("Record allocated %v times per call", n)
	}
}

// TestHistMemoryFollowsRange: a million samples over a 300-cycle range
// keep a dense array of a few hundred counts and no sparse bins.
func TestHistMemoryFollowsRange(t *testing.T) {
	var h Hist
	for i := 0; i < 1_000_000; i++ {
		h.Add(int64(i*7919) % 300)
	}
	if h.Count() != 1_000_000 || cap(h.dense) > 512 || len(h.sparse) != 0 {
		t.Fatalf("count %d, dense cap %d, sparse %d", h.Count(), cap(h.dense), len(h.sparse))
	}
}
