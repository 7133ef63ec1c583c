package network

// FlitQueue is a bounded FIFO of flits backed by a ring buffer. It is the
// storage behind every virtual-channel input buffer and adapter queue.
//
// wpos/pend implement staging for plain links (see Link): the producing
// link writes accepted flits into the ring at wpos during its source
// router's tick and the link phase Delay cycles later publishes them in
// bulk. The ring splits into two disjoint regions — [head, head+n) live,
// [head+n, head+n+pend) staged — with head and n owned by the consuming
// router and wpos/pend owned by the single producing link. head+n is
// invariant under Drop, so the producer cursor tracks the staged
// end by pure increments without ever reading consumer state (which would
// race under parallel stepping); a ring fed by Push instead (injection
// ports, adapter and retry links) never uses the cursor.
//
// The four cursors are 16-bit, so a queue is 32 bytes and half a VCState
// line: a ring holds at most MaxRingDepth flits, which Config.Validate
// enforces for every buffer it sizes. Cursor arithmetic is done in int.
type FlitQueue struct {
	buf  []Flit
	head uint16
	n    uint16

	wpos uint16
	pend uint16
}

// MaxRingDepth is the deepest ring a FlitQueue's 16-bit cursors can index.
const MaxRingDepth = 1<<16 - 1

// NewFlitQueue returns a queue with the given capacity in flits, clamped
// to [1, MaxRingDepth].
func NewFlitQueue(capacity int) *FlitQueue {
	return &FlitQueue{buf: make([]Flit, min(max(capacity, 1), MaxRingDepth))}
}

// Cap returns the queue capacity.
func (q *FlitQueue) Cap() int { return len(q.buf) }

// Len returns the number of buffered flits.
func (q *FlitQueue) Len() int { return int(q.n) }

// Free returns the remaining capacity.
func (q *FlitQueue) Free() int { return len(q.buf) - int(q.n) }

// Empty reports whether the queue holds no flits.
func (q *FlitQueue) Empty() bool { return q.n == 0 }

// Push appends a flit. It reports false (dropping nothing) when full; flow
// control is supposed to prevent that, and callers treat false as a bug.
// Indices wrap by conditional subtraction, not modulo: head and n are both
// < len(buf), and the engine hits these paths once per flit movement.
func (q *FlitQueue) Push(f Flit) bool {
	if int(q.n) == len(q.buf) {
		return false
	}
	i := int(q.head) + int(q.n)
	if i >= len(q.buf) {
		i -= len(q.buf)
	}
	q.buf[i] = f
	q.n++
	return true
}

// Front returns the oldest flit without removing it. It must not be called
// on an empty queue.
func (q *FlitQueue) Front() Flit { return q.buf[q.head] }

// frontRef returns a pointer to the oldest flit in place. The reference is
// invalidated by the next mutation. It must not be called on an empty
// queue.
func (q *FlitQueue) frontRef() *Flit { return &q.buf[q.head] }

// At returns the i-th oldest flit (0 = front). It must be in range.
func (q *FlitQueue) At(i int) Flit {
	j := int(q.head) + i
	if j >= len(q.buf) {
		j -= len(q.buf)
	}
	return q.buf[j]
}

// PeekRun returns views of the n oldest flits without removing them, as up
// to two contiguous slices (the run may wrap the ring). n must not exceed
// Len. The views are invalidated by the next mutation; pair with Drop.
func (q *FlitQueue) PeekRun(n int) (a, b []Flit) {
	h := int(q.head)
	end := h + n
	if end <= len(q.buf) {
		return q.buf[h:end], nil
	}
	return q.buf[h:], q.buf[:end-len(q.buf)]
}

// Drop removes the n oldest flits. Flits hold no pointer, so a dead slot
// is left as it is (Push/stageSpan overwrite whole flits): this is
// index arithmetic only. n must not exceed Len.
func (q *FlitQueue) Drop(n int) {
	h := int(q.head) + n
	if h >= len(q.buf) {
		h -= len(q.buf)
	}
	q.head = uint16(h)
	q.n -= uint16(n)
}

// Reset discards all buffered flits, staged ones included.
func (q *FlitQueue) Reset() {
	q.head, q.n = 0, 0
	q.wpos, q.pend = 0, 0
}

// stageSpan reserves n staged slots at the producer cursor and returns
// them as up to two contiguous views (the reservation may wrap the ring),
// for bulk-copy staging. Credit flow control guarantees the slots are free
// — the staging twin of Push's "full means protocol bug" contract,
// unchecked here because the producer may not read the consumer-owned
// occupancy; publication checks it (Network.commitDirect).
func (q *FlitQueue) stageSpan(n int) (a, b []Flit) {
	w := int(q.wpos)
	end := w + n
	if end <= len(q.buf) {
		a = q.buf[w:end]
		if end == len(q.buf) {
			end = 0
		}
	} else {
		end -= len(q.buf)
		a, b = q.buf[w:], q.buf[:end]
	}
	q.wpos = uint16(end)
	q.pend += uint16(n)
	return
}

// publish makes the k oldest staged flits visible to the consumer. Runs in
// the link phase, after the barrier that quiesces the producer.
func (q *FlitQueue) publish(k int) {
	q.n += uint16(k)
	q.pend -= uint16(k)
}
