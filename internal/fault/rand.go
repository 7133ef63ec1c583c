// Package fault implements the deterministic fault-injection and
// link-reliability subsystem: seeded per-link bit-error models, scriptable
// fault events (transient bursts, stuck-lane degradation, permanent
// link-down), and the wiring that attaches them — together with the
// link-layer retry protocol of internal/network — to a built network.
//
// Everything here is replayable: all randomness flows from one root seed
// through Split, so a run is a pure function of (topology, workload seed,
// fault seed) regardless of worker count or job interleaving.
package fault

import "math/rand"

// Root returns the historical root stream for a seed: exactly
// rand.New(rand.NewSource(seed)). internal/traffic draws its injection and
// destination randomness from Root's stream, which keeps every pre-fault
// simulation result bit-identical: hotspot pair selection calls Root, and
// traffic.Generator.Drive, serial on the stepping goroutine, steps its own
// copy of the same source inline, draw for draw. New subsystems must NOT
// use Root — derive an independent stream with Split instead.
func Root(seed int64) *rand.Rand {
	return rand.New(rand.NewSource(seed))
}

// Domains for Split. Each subsystem draws from its own domain so streams
// never collide even when two subsystems index by the same small integers
// (e.g. traffic per-node streams vs fault per-link streams).
const (
	// DomainLink seeds the per-link error-injection stream (index = link ID).
	DomainLink uint64 = 1
	// DomainPHY seeds per-adapter-PHY error streams
	// (index = 2*linkID + phy).
	DomainPHY uint64 = 2
)

// Split derives an independent deterministic stream for (seed, domain,
// index) by running the tuple through a SplitMix64-style mixer. The mixed
// seed is guaranteed to fall outside the "root band" of small seeds that
// Root (and the historical seed+offset call sites) use, so a fault stream
// can never alias a traffic stream under any root seed a user plausibly
// passes on the command line.
func Split(seed int64, domain, index uint64) *rand.Rand {
	return rand.New(rand.NewSource(splitSeed(seed, domain, index)))
}

// splitSeed mixes the (seed, domain, index) tuple into a source seed
// outside the root band.
func splitSeed(seed int64, domain, index uint64) int64 {
	x := uint64(seed)
	x = mix64(x ^ 0x9e3779b97f4a7c15)
	x = mix64(x ^ domain*0xbf58476d1ce4e5b9)
	x = mix64(x ^ index*0x94d049bb133111eb)
	// Keep remixing until the seed is far from every plausible root seed
	// (|seed| < 2^32). Terminates immediately with probability 1-2^-31.
	for x>>32 == 0 || x>>32 == 0xffffffff {
		x = mix64(x)
	}
	return int64(x)
}

// mix64 is the SplitMix64 finalizer (Steele et al., "Fast Splittable
// Pseudorandom Number Generators").
func mix64(z uint64) uint64 {
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}
