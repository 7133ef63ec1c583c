package trace

import (
	"encoding/binary"
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"
)

// oracleSort is the sort sortRecords replaced, kept as its reference.
func oracleSort(recs []Record) {
	sort.SliceStable(recs, func(i, j int) bool { return recs[i].Time < recs[j].Time })
}

// checkSort sorts a copy of times both ways and compares record for record;
// Src carries the generation index, so a stability slip shows.
func checkSort(t *testing.T, times []int64) {
	t.Helper()
	recs := make([]Record, len(times))
	for i, tm := range times {
		recs[i] = Record{Time: tm, Src: int32(i), Dst: int32(i) + 1, Flits: 1}
	}
	want := slices.Clone(recs)
	oracleSort(want)
	tr := &Trace{Records: recs}
	tr.sortRecords()
	if !slices.Equal(tr.Records, want) {
		t.Fatalf("sortRecords differs from sort.SliceStable on %d records (times %v...)", len(times), times[:min(len(times), 12)])
	}
}

func TestSortRecordsMatchesStableSort(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	draw := func(n int, f func(i int) int64) []int64 {
		out := make([]int64, n)
		for i := range out {
			out[i] = f(i)
		}
		return out
	}
	cases := map[string][]int64{
		"empty":          nil,
		"single":         {42},
		"one cycle only": draw(500, func(int) int64 { return 7 }),
		"heavy ties":     draw(5000, func(int) int64 { return int64(r.Intn(13)) }),
		"dense":          draw(5000, func(int) int64 { return 1000 + int64(r.Intn(2000)) }),
		"already sorted": draw(1000, func(i int) int64 { return int64(i / 3) }),
		"reverse sorted": draw(1000, func(i int) int64 { return int64((1000 - i) / 3) }),
		"negative times": draw(1000, func(int) int64 { return int64(r.Intn(300)) - 150 }),
		"sparse span":    draw(10, func(int) int64 { return r.Int63n(1 << 40) }),
		"sparse ties":    draw(200, func(int) int64 { return int64(r.Intn(5)) << 38 }),
		"int64 extremes": {math.MaxInt64, math.MinInt64, 0, math.MaxInt64, math.MinInt64, -1},
		"span boundary":  append(draw(100, func(int) int64 { return int64(r.Intn(10)) }), 100*maxSpanPerRecord, 3),
		"one past bound": append(draw(100, func(int) int64 { return int64(r.Intn(10)) }), 102*maxSpanPerRecord+1, 3),
	}
	for name, times := range cases {
		t.Run(name, func(t *testing.T) { checkSort(t, times) })
	}
	for i := 0; i < 200; i++ {
		n, span := r.Intn(400), 1+r.Int63n(3000)
		checkSort(t, draw(n, func(int) int64 { return r.Int63n(span) }))
	}
}

// FuzzSortRecords reads the input as 16-bit times, alternately dense and
// spread over 2^40 so both the counting and the comparison path run; the
// seed corpus runs under plain `go test`.
func FuzzSortRecords(f *testing.F) {
	f.Add([]byte{}, false)
	f.Add([]byte{1, 0}, false)
	f.Add([]byte{9, 0, 9, 0, 3, 0, 9, 0, 3, 0}, false)
	f.Add([]byte{0, 1, 0, 2, 0, 3}, true)
	f.Add([]byte{255, 255, 0, 0, 255, 255, 0, 0, 7, 7}, true)
	f.Fuzz(func(t *testing.T, data []byte, sparse bool) {
		times := make([]int64, len(data)/2)
		for i := range times {
			times[i] = int64(binary.LittleEndian.Uint16(data[2*i:]))
			if sparse {
				times[i] <<= 24
			}
		}
		checkSort(t, times)
	})
}

func TestSortRecordsSortedInputAllocatesNothing(t *testing.T) {
	tr, err := GeneratePARSEC("canneal", 2000, 1)
	if err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(10, tr.sortRecords); n != 0 {
		t.Fatalf("sorting an already sorted trace allocated %v times", n)
	}
}
