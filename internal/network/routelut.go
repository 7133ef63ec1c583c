package network

// routeLUT is the precomputed candidate table for RoutePure routing
// algorithms: one entry per (router, destination, restricted) triple,
// stored as a flat candidate pool with prefix offsets. Purity makes the
// entry independent of the input port and of all dynamic state, so a
// lookup replaces the Routing.Route interface call entirely on the VC-
// allocation hot path.
type routeLUT struct {
	n     int
	offs  []uint32
	cands []Candidate
	// adapt[e] is the adaptive-port mask of entry e: the union of
	// 1<<Port over its non-escape candidates with Port < 64 — the
	// prologue the livelock channel-switch restriction in allocate
	// needs, hoisted out of the per-lookup loop.
	adapt []uint64
}

// lutEntry computes the offs index of (r, dst, restricted).
func (l *routeLUT) lutEntry(r, dst NodeID, restricted bool) int {
	e := (int(r)*l.n + int(dst)) * 2
	if restricted {
		e++
	}
	return e
}

// lookup returns the candidate set for a packet to dst observed at router
// r. Entries with r == dst are empty (ejection short-circuits before RC).
func (l *routeLUT) lookup(r, dst NodeID, restricted bool) []Candidate {
	e := l.lutEntry(r, dst, restricted)
	return l.cands[l.offs[e]:l.offs[e+1]]
}

// lookupFrom is lookup with the router's row offset (Router.lutBase,
// precomputed in prepare) already folded in, saving the row multiply on
// the VC-allocation hot path. It also returns the entry's precomputed
// adaptive-port mask.
func (l *routeLUT) lookupFrom(base int, dst NodeID, restricted bool) ([]Candidate, uint64) {
	e := base + int(dst)*2
	if restricted {
		e++
	}
	return l.cands[l.offs[e]:l.offs[e+1]], l.adapt[e]
}

// buildRouteLUT evaluates the routing function once for every (router,
// destination, restricted) triple. Route is invoked with a scratch packet
// carrying only the fields a RoutePure algorithm may read (Dst,
// Restricted) and the injection port as inPort; purity guarantees the
// result matches what any in-flight packet would see.
func buildRouteLUT(net *Network) *routeLUT {
	n := len(net.Nodes)
	lut := &routeLUT{n: n}
	lut.offs = make([]uint32, 1, 2*n*n+1)
	lut.adapt = make([]uint64, 0, 2*n*n)
	var scratch []Candidate
	var pkt Packet
	for i, r := range net.Nodes {
		if i == 1 {
			// Reserve the pool once, from the first router's row: rows
			// differ only by the router's position, while append growth
			// from empty would allocate several times the final pool.
			lut.cands = append(make([]Candidate, 0, n*len(lut.cands)), lut.cands...)
		}
		for dst := 0; dst < n; dst++ {
			for restricted := 0; restricted < 2; restricted++ {
				if NodeID(dst) != r.ID {
					pkt = Packet{Dst: NodeID(dst), Restricted: restricted == 1, Target: -1}
					scratch = net.Routing.Route(net, r, r.InjectPort, &pkt, scratch[:0])
					lut.cands = append(lut.cands, scratch...)
					lut.adapt = append(lut.adapt, adaptiveMask(scratch))
				} else {
					lut.adapt = append(lut.adapt, 0)
				}
				lut.offs = append(lut.offs, uint32(len(lut.cands)))
			}
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
				r.lutBase = i * len(net.Nodes) * 2
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
