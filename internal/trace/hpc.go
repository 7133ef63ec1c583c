package trace

// HPC trace generators: synthetic stand-ins for the dumpi traces collected
// on NERSC Hopper (Sec. 7.2). Both programs run on 1024 ranks and produce
// over one million packets, matching the paper's description.

// HPCRanks is the MPI rank count of both HPC traces.
const HPCRanks = 1024

// cnsGrid is the 3D rank decomposition used by the CNS generator.
var cnsGrid = [3]int{16, 8, 8}

func rankAt(x, y, z int) int32 {
	return int32((z*cnsGrid[1]+y)*cnsGrid[0] + x)
}

// gridLinks is the number of neighbouring rank pairs in cnsGrid,
// Σ_a (g_a−1)·Π_{b≠a} g_b: what one sweep step sends along one direction per
// axis, and half of what a halo exchange sends per packet of a face.
func gridLinks() int {
	g := cnsGrid
	return (g[0]-1)*g[1]*g[2] + g[0]*(g[1]-1)*g[2] + g[0]*g[1]*(g[2]-1)
}

// reserveSteps gives Records its one allocation: perStep records for every
// step that starts before cycles. Exact when cycles is a multiple of step;
// otherwise the last step drops what falls past the end.
func (t *Trace) reserveSteps(cycles, step int64, perStep int) {
	steps := max(0, (cycles+step-1)/step)
	t.Records = make([]Record, 0, steps*int64(perStep))
}

func coordsOf(r int32) (x, y, z int) {
	x = int(r) % cnsGrid[0]
	y = (int(r) / cnsGrid[0]) % cnsGrid[1]
	z = int(r) / (cnsGrid[0] * cnsGrid[1])
	return
}

// GenerateCNS synthesizes the compressible Navier–Stokes trace: a bulk
// 3D halo exchange. Every timestep, each rank exchanges ghost zones with
// its six grid neighbors — several 16-flit packets per face, jittered
// across the step window — which is the bandwidth-dominated,
// nearest-neighbor structure of the original miniapp.
func GenerateCNS(cycles int64, seed int64) *Trace {
	r := rng(seed ^ 0xC45)
	t := &Trace{Name: "hpc-cns", Ranks: HPCRanks, Cycles: cycles}
	const (
		stepCycles   = 2000 // compute+exchange period
		pktsPerFace  = 4
		flitsPerPkt  = 16
		exchangeSpan = 800 // window within a step over which sends spread
	)
	t.reserveSteps(cycles, stepCycles, 2*gridLinks()*pktsPerFace)
	for start := int64(0); start < cycles; start += stepCycles {
		for rank := int32(0); rank < HPCRanks; rank++ {
			x, y, z := coordsOf(rank)
			neighbors := [][3]int{
				{x - 1, y, z}, {x + 1, y, z},
				{x, y - 1, z}, {x, y + 1, z},
				{x, y, z - 1}, {x, y, z + 1},
			}
			for _, nb := range neighbors {
				if nb[0] < 0 || nb[0] >= cnsGrid[0] || nb[1] < 0 || nb[1] >= cnsGrid[1] || nb[2] < 0 || nb[2] >= cnsGrid[2] {
					continue // physical boundary: no exchange
				}
				dst := rankAt(nb[0], nb[1], nb[2])
				for p := 0; p < pktsPerFace; p++ {
					when := start + int64(r.Intn(exchangeSpan))
					if when >= cycles {
						continue
					}
					t.Records = append(t.Records, Record{
						Time: when, Src: rank, Dst: dst,
						Flits: flitsPerPkt, Class: classBestEffort,
					})
				}
			}
		}
	}
	t.sortRecords()
	return t
}

// GenerateMOC synthesizes the 3D method-of-characteristics trace: a
// pipelined angular sweep. Rays cross the domain along octant directions,
// so each rank forwards partial angular fluxes to its three downstream
// neighbors per sweep step, and a fraction of the traffic is long-range
// (characteristics that span several ranks before re-entering the grid),
// giving MOC its mixed near/far structure.
func GenerateMOC(cycles int64, seed int64) *Trace {
	r := rng(seed ^ 0x30C)
	t := &Trace{Name: "hpc-moc", Ranks: HPCRanks, Cycles: cycles}
	const (
		sweepCycles = 250 // one wavefront step
		flitsPerPkt = 8
		longFrac    = 0.15 // long-range characteristic messages
	)
	octants := [8][3]int{
		{1, 1, 1}, {-1, 1, 1}, {1, -1, 1}, {-1, -1, 1},
		{1, 1, -1}, {-1, 1, -1}, {1, -1, -1}, {-1, -1, -1},
	}
	t.reserveSteps(cycles, sweepCycles, gridLinks())
	oct := 0
	for start := int64(0); start < cycles; start += sweepCycles {
		dir := octants[oct%len(octants)]
		oct++
		for rank := int32(0); rank < HPCRanks; rank++ {
			x, y, z := coordsOf(rank)
			downstream := [][3]int{
				{x + dir[0], y, z},
				{x, y + dir[1], z},
				{x, y, z + dir[2]},
			}
			for _, nb := range downstream {
				if nb[0] < 0 || nb[0] >= cnsGrid[0] || nb[1] < 0 || nb[1] >= cnsGrid[1] || nb[2] < 0 || nb[2] >= cnsGrid[2] {
					continue
				}
				dst := rankAt(nb[0], nb[1], nb[2])
				if r.Float64() < longFrac {
					// Long characteristic: skip several ranks along the
					// sweep direction.
					hop := 2 + r.Intn(4)
					lx := clamp(x+dir[0]*hop, 0, cnsGrid[0]-1)
					ly := clamp(y+dir[1]*hop, 0, cnsGrid[1]-1)
					lz := clamp(z+dir[2]*hop, 0, cnsGrid[2]-1)
					if d := rankAt(lx, ly, lz); d != rank {
						dst = d
					}
				}
				when := start + int64(r.Intn(sweepCycles))
				if when >= cycles || dst == rank {
					continue
				}
				t.Records = append(t.Records, Record{
					Time: when, Src: rank, Dst: dst,
					Flits: flitsPerPkt, Class: classBestEffort,
				})
			}
		}
	}
	t.sortRecords()
	return t
}

func clamp(v, lo, hi int) int {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}
