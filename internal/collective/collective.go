// Package collective implements dependency-driven, closed-loop workload
// drivers for the simulator: ML-style collective-communication primitives
// (ring all-reduce, reduce-scatter, all-gather, windowed all-to-all) over
// arbitrary participant sets, plus a layer-by-layer DNN training traffic
// model in the spirit of CHIPSIM. Unlike the open-loop generators of
// internal/traffic (Bernoulli sampling, trace replay), every injection
// here is *gated on deliveries*: a participant forwards a chunk only after
// the chunk it depends on has fully arrived (and any modeled reduction
// compute has elapsed). The headline metric is therefore collective
// completion time — the workload-level number packet-latency sweeps cannot
// reveal — and the compute phases between steps are provably idle network
// stretches that exercise the engine's quiescence fast-forward.
//
// A workload is a Program: a DAG of point-to-point messages. Each Msg
// carries its source, destination, payload (split into packets of at most
// the configured packet length at injection), a step label for per-step
// reporting, and a compute delay applied after its dependencies deliver.
// Builders construct the standard shapes; Engine executes any valid DAG
// against a network through the RunWith(drive, next) closed-loop hooks.
package collective

import (
	"fmt"
	"slices"

	"heteroif/internal/network"
)

// Msg is one point-to-point transfer in a collective program.
type Msg struct {
	Src, Dst network.NodeID
	// Flits is the payload length; the engine splits it into packets of at
	// most the network's configured packet length. A non-positive payload
	// (or Src == Dst) makes the message a pure synchronization point: it
	// completes at its injection cycle without entering the network.
	Flits int
	// Step labels the message for per-step completion reporting.
	Step int32
	// Compute is the modeled local computation (reduction, layer forward/
	// backward pass) between this message's dependencies delivering and its
	// injection becoming eligible, in cycles.
	Compute int64
}

// Program is a DAG of messages: Deps[i] lists the messages that must fully
// deliver before Msgs[i] becomes eligible (after Msgs[i].Compute further
// cycles). Builders produce acyclic programs by construction; NewEngine
// verifies acyclicity for hand-built ones.
type Program struct {
	Name string
	// Participants is the number of cooperating endpoints (builders set it;
	// reporting only).
	Participants int
	// Class is assigned to every generated packet. Collective payloads
	// default to ClassThroughput — bulk data an application-aware adapter
	// steers to the high-bandwidth serial PHY.
	Class network.Class
	Msgs  []Msg
	Deps  [][]int32
	// Steps is 1 + the highest step label.
	Steps int

	// pool holds every builder-made Deps entry back to back, so a program
	// holds one dependency array rather than one per message.
	pool []int32
}

// reserve makes room for msgs more messages and deps more dependency
// entries. Every builder reserves what it will add, so the pool is one
// array; were it to regrow, entries already carved keep the old one.
func (p *Program) reserve(msgs, deps int) {
	p.Msgs = slices.Grow(p.Msgs, msgs)
	p.Deps = slices.Grow(p.Deps, msgs)
	p.pool = slices.Grow(p.pool, deps)
}

// add appends a message and returns its index. The dependency list is
// copied into the pool as a capacity-capped subslice: appending to a
// Deps entry reallocates it instead of overwriting a neighbour's.
func (p *Program) add(src, dst network.NodeID, flits int, step int32, compute int64, deps ...int32) int32 {
	p.Msgs = append(p.Msgs, Msg{Src: src, Dst: dst, Flits: flits, Step: step, Compute: compute})
	at := len(p.pool)
	p.pool = append(p.pool, deps...)
	p.Deps = append(p.Deps, p.pool[at:len(p.pool):len(p.pool)])
	if int(step) >= p.Steps {
		p.Steps = int(step) + 1
	}
	return int32(len(p.Msgs) - 1)
}

// Validate checks structural sanity against a network of n nodes: node IDs
// in range, dependency indices valid. Acyclicity is checked by NewEngine
// (it needs the inverted adjacency anyway).
func (p *Program) Validate(n int) error {
	for i, m := range p.Msgs {
		if int(m.Src) < 0 || int(m.Src) >= n || int(m.Dst) < 0 || int(m.Dst) >= n {
			return fmt.Errorf("collective: %s msg %d endpoints %d->%d out of range [0,%d)", p.Name, i, m.Src, m.Dst, n)
		}
		if m.Compute < 0 {
			return fmt.Errorf("collective: %s msg %d has negative compute %d", p.Name, i, m.Compute)
		}
		for _, d := range p.Deps[i] {
			if int(d) < 0 || int(d) >= len(p.Msgs) {
				return fmt.Errorf("collective: %s msg %d depends on invalid msg %d", p.Name, i, d)
			}
		}
	}
	if len(p.Deps) != len(p.Msgs) {
		return fmt.Errorf("collective: %s has %d dep lists for %d msgs", p.Name, len(p.Deps), len(p.Msgs))
	}
	return nil
}

// TotalFlits returns the program's aggregate payload.
func (p *Program) TotalFlits() int64 {
	var total int64
	for _, m := range p.Msgs {
		if m.Flits > 0 && m.Src != m.Dst {
			total += int64(m.Flits)
		}
	}
	return total
}

// chunk is the per-step transfer size of a ring collective: the
// per-participant payload divided into P chunks, rounded up.
func chunk(dataFlits, p int) int {
	c := (dataFlits + p - 1) / p
	if c < 1 {
		c = 1
	}
	return c
}

func checkParts(name string, parts []network.NodeID) {
	if len(parts) < 2 {
		panic(fmt.Sprintf("collective: %s needs at least 2 participants, got %d", name, len(parts)))
	}
	seen := make(map[network.NodeID]bool, len(parts))
	for _, n := range parts {
		if seen[n] {
			panic(fmt.Sprintf("collective: %s participant %d repeated", name, n))
		}
		seen[n] = true
	}
}

// appendRing appends the reduce-scatter and/or all-gather phases of the
// 2-phase ring all-reduce over the participants in ring order, labelled
// from step p.Steps on. In reduce-scatter step s, participant i sends
// chunk (i-s mod P) to its ring successor; the send depends on the chunk
// received from its predecessor in step s-1 plus the per-chunk reduction
// compute. In all-gather step s, participant i forwards the fully-reduced
// chunk it holds to its successor; the first all-gather send depends on
// the final reduce-scatter delivery (and its closing reduction), later
// ones are pure forwards. The sends of the first step, which depend on
// nothing inside the ring, wait for gate instead and add gateCompute to
// their compute (DNNTraining's layer barrier). The ring's last step is
// its final P messages.
func (p *Program) appendRing(parts []network.NodeID, dataFlits int, compute int64, scatter, gather bool, gate []int32, gateCompute int64) {
	n := len(parts)
	ch := chunk(dataFlits, n)
	succ := func(i int) network.NodeID { return parts[(i+1)%n] }
	pred := func(i int) int32 { return int32((i - 1 + n) % n) }

	step := int32(p.Steps)
	if scatter {
		for s := 0; s < n-1; s++ {
			base := int32(len(p.Msgs))
			for i := 0; i < n; i++ {
				if s == 0 {
					// The first chunk is local data: no reduction yet.
					p.add(parts[i], succ(i), ch, step, gateCompute, gate...)
					continue
				}
				// Forwarding chunk s requires the predecessor's step-s-1
				// delivery, reduced into the local accumulator.
				p.add(parts[i], succ(i), ch, step, compute, base-int32(n)+pred(i))
			}
			step++
		}
	}
	if gather {
		for s := 0; s < n-1; s++ {
			base := int32(len(p.Msgs))
			for i := 0; i < n; i++ {
				switch {
				case s == 0 && scatter:
					// The node holding a fully-reduced chunk starts its
					// broadcast: depends on the final reduce-scatter
					// delivery from its predecessor plus the closing
					// reduction.
					p.add(parts[i], succ(i), ch, step, compute, base-int32(n)+pred(i))
				case s == 0:
					// Standalone all-gather: local data.
					p.add(parts[i], succ(i), ch, step, gateCompute, gate...)
				default:
					// Pure forward of a received chunk: no reduction.
					p.add(parts[i], succ(i), ch, step, 0, base-int32(n)+pred(i))
				}
			}
			step++
		}
	}
}

// ringProgram builds one ring collective as its own program.
func ringProgram(name string, parts []network.NodeID, dataFlits int, compute int64, scatter, gather bool) *Program {
	checkParts(name, parts)
	n := len(parts)
	prog := &Program{Name: name, Participants: n, Class: network.ClassThroughput}
	steps := 0
	if scatter {
		steps += n - 1
	}
	if gather {
		steps += n - 1
	}
	// Without a gate every ring send has at most one dependency.
	prog.reserve(steps*n, steps*n)
	prog.appendRing(parts, dataFlits, compute, scatter, gather, nil, 0)
	return prog
}

// RingAllReduce builds the 2-phase ring all-reduce (P-1 reduce-scatter
// steps followed by P-1 all-gather steps) over the participants in the
// given ring order. dataFlits is the per-participant payload; each step
// transfers ceil(dataFlits/P) flits per participant. compute models the
// per-chunk reduction delay applied before every send that follows a
// received chunk.
func RingAllReduce(parts []network.NodeID, dataFlits int, compute int64) *Program {
	return ringProgram("allreduce", parts, dataFlits, compute, true, true)
}

// ReduceScatter builds the reduce-scatter half of the ring all-reduce:
// after P-1 steps each participant holds one fully-reduced chunk.
func ReduceScatter(parts []network.NodeID, dataFlits int, compute int64) *Program {
	return ringProgram("reduce-scatter", parts, dataFlits, compute, true, false)
}

// AllGather builds the all-gather ring: each participant circulates its
// local chunk around the ring in P-1 forwarding steps (no reduction).
func AllGather(parts []network.NodeID, dataFlits int) *Program {
	return ringProgram("all-gather", parts, dataFlits, 0, false, true)
}

// AllToAll builds a windowed personalized exchange: every participant
// sends a distinct flitsPerPair-flit chunk to every other participant, in
// a source-rotated destination order (participant i's j-th send targets
// participant i+1+j mod P, so no destination is hammered by everyone at
// once). window bounds each source's outstanding messages — send j is
// gated on the delivery of the same source's send j-window — which is what
// makes the exchange closed-loop; window <= 0 means unbounded (fully
// open-loop within the collective).
func AllToAll(parts []network.NodeID, flitsPerPair, window int) *Program {
	checkParts("all-to-all", parts)
	p := len(parts)
	if flitsPerPair < 1 {
		flitsPerPair = 1
	}
	prog := &Program{Name: "all-to-all", Participants: p, Class: network.ClassThroughput}
	prog.reserve(p*(p-1), p*(p-1))
	// idx(i, j) is participant i's j-th send; messages are laid out in
	// (round, participant) order so index order matches eligibility order.
	idx := func(i, j int) int32 { return int32(j*p + i) }
	for j := 0; j < p-1; j++ {
		for i := 0; i < p; i++ {
			dst := parts[(i+1+j)%p]
			if window > 0 && j >= window {
				prog.add(parts[i], dst, flitsPerPair, int32(j), 0, idx(i, j-window))
			} else {
				prog.add(parts[i], dst, flitsPerPair, int32(j), 0)
			}
		}
	}
	return prog
}
