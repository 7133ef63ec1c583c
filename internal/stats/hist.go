package stats

import "sort"

// histDense is the exclusive upper bound of the values a Hist counts in its
// dense array. Latencies of an unsaturated point are a few hundred cycles;
// past saturation they grow with the source queues, and a value of 2^16
// cycles or more goes to the sorted sparse list instead.
const histDense = 1 << 16

// Hist is an exact histogram of int64 samples: a count per value in
// [0, len(dense)) — grown on demand up to histDense — and a sorted
// (value, count) list for every other value. Its memory follows the range
// and the number of distinct values, never the number of samples, and Add
// allocates only when a sample extends the range or is a new sparse value.
type Hist struct {
	n      int64
	dense  []int64
	sparse []histBin
}

type histBin struct{ v, n int64 }

// Add counts one sample.
func (h *Hist) Add(v int64) {
	h.n++
	if uint64(v) < uint64(len(h.dense)) {
		h.dense[v]++
		return
	}
	if v >= 0 && v < histDense {
		size := max(64, 2*len(h.dense))
		for int64(size) <= v {
			size *= 2
		}
		h.dense = append(h.dense, make([]int64, min(size, histDense)-len(h.dense))...)
		h.dense[v]++
		return
	}
	i := sort.Search(len(h.sparse), func(i int) bool { return h.sparse[i].v >= v })
	if i < len(h.sparse) && h.sparse[i].v == v {
		h.sparse[i].n++
		return
	}
	h.sparse = append(h.sparse, histBin{})
	copy(h.sparse[i+1:], h.sparse[i:])
	h.sparse[i] = histBin{v, 1}
}

// Count returns the number of samples.
func (h *Hist) Count() int64 { return h.n }

// Percentile returns the q-th (0..1) sample: the element at index
// int(q·(n−1)), clamped to [0, n−1], of the samples in ascending order —
// what sorting a slice of every sample and indexing it returns. An empty
// histogram returns 0.
func (h *Hist) Percentile(q float64) int64 {
	if h.n == 0 {
		return 0
	}
	k := int64(int(q * float64(h.n-1)))
	if k < 0 {
		k = 0
	}
	if k >= h.n {
		k = h.n - 1
	}
	// Sparse values below zero sort before the dense range, the rest after.
	neg := sort.Search(len(h.sparse), func(i int) bool { return h.sparse[i].v >= 0 })
	for _, b := range h.sparse[:neg] {
		if k < b.n {
			return b.v
		}
		k -= b.n
	}
	for v, c := range h.dense {
		if k < c {
			return int64(v)
		}
		k -= c
	}
	for _, b := range h.sparse[neg:] {
		if k < b.n {
			return b.v
		}
		k -= b.n
	}
	panic("stats: histogram counts do not sum to its sample count")
}
