package network

// White-box probes for the external build-path tests (build_test.go), which
// need topology and routing and so cannot live in this package.

// RingBacking identifies a ring's storage: the last element of the array
// backing it and how much of that array lies at or after the ring's first
// slot. Rings carved from one storage chunk share end; a ring without storage
// returns (nil, 0).
func RingBacking(q *FlitQueue) (end *Flit, room int) {
	room = cap(q.buf)
	if room == 0 {
		return nil, 0
	}
	return &q.buf[:room][room-1], room
}

// DelayLineWords returns how much delay-line storage l has: none before
// Finalize.
func DelayLineWords(l *Link) int { return len(l.line) }

// IssueCounts returns the traversals charged to p per energy class
// (on-chip, parallel, serial) that its hop counts do not imply: the PHY
// issues of hetero-PHY adapters and retry retransmissions.
func IssueCounts(p *Packet) [energyClasses]uint64 { return p.tx }
