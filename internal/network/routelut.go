package network

// routeLUT is the precomputed candidate table for RoutePure routing
// algorithms: one entry per (router, destination, restricted) triple,
// stored as candidate pools with prefix offsets. Purity makes the
// entry independent of the input port and of all dynamic state, so a
// lookup replaces the Routing.Route interface call entirely on the VC-
// allocation hot path.
type routeLUT struct {
	// offs holds 2n+1 prefix offsets per router (stride), relative to the
	// start of the router's pool.
	offs   []uint32
	stride int
	// pool[r] is the candidate pool router r's offsets index: chunks of at
	// least lutChunkCands candidates shared by consecutive routers (a small
	// table is one chunk), not one array, for the reason packSlabs gives (at
	// 256 nodes the pool is 6 MB, and peak RSS moved by that much from run
	// to run).
	pool [][]Candidate
	// adapt[e] is the adaptive-port mask of entry e: the union of
	// 1<<Port over its non-escape candidates with Port < 64 — the
	// prologue the livelock channel-switch restriction in allocate
	// needs, hoisted out of the per-lookup loop. It shares offs' stride.
	adapt []uint64
}

// lutChunkCands is the least number of candidates in one pool chunk
// (768 KB; the last chunk may be smaller).
const lutChunkCands = 48 << 10

// lookup returns the candidate set for a packet to dst observed at router
// r. Entries with r == dst are empty (ejection short-circuits before RC).
func (l *routeLUT) lookup(r, dst NodeID, restricted bool) []Candidate {
	cands, _ := l.lookupFrom(l.pool[r], int(r)*l.stride, dst, restricted)
	return cands
}

// lookupFrom is lookup with the router's pool and row offset
// (Router.lutPool and lutBase, set in prepare) already at hand, saving the
// row multiply and a dependent load on the VC-allocation hot path. It also
// returns the entry's precomputed adaptive-port mask.
func (l *routeLUT) lookupFrom(pool []Candidate, base int, dst NodeID, restricted bool) ([]Candidate, uint64) {
	e := base + int(dst)*2
	if restricted {
		e++
	}
	return pool[l.offs[e]:l.offs[e+1]], l.adapt[e]
}

// buildRouteLUT evaluates the routing function once for every (router,
// destination, restricted) triple. Route is invoked with a scratch packet
// carrying only the fields a RoutePure algorithm may read (Dst,
// Restricted) and the injection port as inPort; purity guarantees the
// result matches what any in-flight packet would see.
func buildRouteLUT(net *Network) *routeLUT {
	n := len(net.Nodes)
	lut := &routeLUT{stride: 2*n + 1, pool: make([][]Candidate, n)}
	lut.offs = make([]uint32, 0, n*lut.stride)
	lut.adapt = make([]uint64, 0, n*lut.stride)
	var scratch []Candidate
	var pkt Packet
	var chunk []Candidate // being filled, for routers first..i
	first, row := 0, 0
	// Chunks are reserved from the first router's row: rows differ only by
	// the router's position, while append growth from empty would allocate
	// several times the final pool.
	reserve := func(routers int) []Candidate {
		return make([]Candidate, 0, min(routers*row, lutChunkCands+row))
	}
	for i, r := range net.Nodes {
		lut.offs = append(lut.offs, uint32(len(chunk)))
		for dst := 0; dst < n; dst++ {
			for restricted := 0; restricted < 2; restricted++ {
				if NodeID(dst) != r.ID {
					pkt = Packet{Dst: NodeID(dst), Restricted: restricted == 1, Target: -1}
					scratch = net.Routing.Route(net, r, r.InjectPort, &pkt, scratch[:0])
					chunk = append(chunk, scratch...)
					lut.adapt = append(lut.adapt, adaptiveMask(scratch))
				} else {
					lut.adapt = append(lut.adapt, 0)
				}
				lut.offs = append(lut.offs, uint32(len(chunk)))
			}
		}
		lut.adapt = append(lut.adapt, 0) // the stride's last slot
		if i == 0 {
			row = len(chunk)
			chunk = append(reserve(n), chunk...)
		}
		if len(chunk) >= lutChunkCands || i == n-1 {
			for ; first <= i; first++ {
				lut.pool[first] = chunk
			}
			chunk = reserve(n - 1 - i)
		}
	}
	return lut
}

// adaptiveMask folds a candidate set's non-escape ports below 64 into the
// bitmask the livelock channel-switch restriction checks.
func adaptiveMask(cands []Candidate) uint64 {
	m := uint64(0)
	for i := range cands {
		if c := &cands[i]; !c.Escape && c.Port < 64 {
			m |= 1 << uint(c.Port)
		}
	}
	return m
}

// prepare derives the route-acceleration state on the first Step, once the
// topology (including injected faults) and the routing algorithm are
// final. The reference tick ignores it: the oracle measures the naive
// engine, not a differently-accelerated one.
func (net *Network) prepare() {
	net.prepared = true
	if net.refTick {
		return
	}
	if s, ok := net.Routing.(Stable); ok {
		net.stability = s.Stability()
	}
	if net.stability == RoutePure {
		limit := net.Cfg.RouteLUTNodes
		if limit == 0 {
			limit = 512
		}
		if limit > 0 && len(net.Nodes) <= limit {
			net.lut = buildRouteLUT(net)
			for i, r := range net.Nodes {
				r.lutBase, r.lutPool = i*net.lut.stride, net.lut.pool[i]
			}
		}
	}
}

// SetReferenceTick switches the engine onto the retained naive router tick
// (full port×VC scans, Route re-evaluated every retry, no LUT). It is the
// oracle side of the saturated-state bit-identity tests and must be called
// before the first Step.
func (net *Network) SetReferenceTick(on bool) {
	if net.prepared {
		panic("network: SetReferenceTick must be called before the first Step")
	}
	net.refTick = on
}

// HasRouteLUT reports whether prepare built a route LUT (tests).
func (net *Network) HasRouteLUT() bool { return net.lut != nil }

// LUTCandidates exposes a route-LUT entry for the stable-routing property
// tests; it returns nil when no LUT was built. The first Step (or a manual
// Prepare via a zero-cycle Run) must have happened.
func (net *Network) LUTCandidates(r, dst NodeID, restricted bool) []Candidate {
	if net.lut == nil {
		return nil
	}
	return net.lut.lookup(r, dst, restricted)
}
