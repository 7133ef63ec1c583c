package trace

// HPC trace generators: synthetic stand-ins for the dumpi traces collected
// on NERSC Hopper (Sec. 7.2). Both programs run on 1024 ranks and produce
// over one million packets, matching the paper's description.

// HPCRanks is the MPI rank count of both HPC traces.
const HPCRanks = 1024

// Both generators draw every random number of a step before they test the
// send time against the end of the trace, and each step's sends stay
// inside its own window, so a trace cut at keep cycles is the longer
// trace's records before keep, in the same order: a prefix. A consumer
// that reads only a trace's head can generate just the head, and take the
// whole trace's flit total from the count pass (CNSFlits, MOCFlits), which
// runs the same loop without storing a record.

// Step shapes of the HPC generators: a step starts every *Step cycles and
// spreads its sends over its first *Span cycles.
const (
	cnsStep        = 2000 // compute+exchange period
	cnsSpan        = 800  // window within a step over which sends spread
	cnsPktsPerFace = 4
	cnsFlits       = 16  // per packet
	mocStep        = 250 // one wavefront step
	mocSpan        = mocStep
	mocFlits       = 8 // per packet
)

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
	t := &Trace{Name: "hpc-cns", Ranks: HPCRanks, Cycles: cycles}
	t.reserveSteps(cycles, cnsStep, 2*gridLinks()*cnsPktsPerFace)
	t.Records, _ = cns(cycles, cycles, seed, t.Records)
	t.sortRecords()
	return t
}

// CNSFlits returns GenerateCNS(cycles, seed).TotalFlits() without storing
// a record.
func CNSFlits(cycles int64, seed int64) int64 {
	_, flits := cns(cycles, 0, seed, nil)
	return flits
}

// cns runs the CNS generator over cycles trace cycles. It appends to recs,
// in generation order, every record that falls before keep, and returns
// them with the flit total of every record before cycles.
func cns(cycles, keep, seed int64, recs []Record) ([]Record, int64) {
	r := rng(seed ^ 0xC45)
	var flits int64
	for start := int64(0); start < cycles; start += cnsStep {
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
				for p := 0; p < cnsPktsPerFace; p++ {
					when := start + int64(r.Intn(cnsSpan))
					if when >= cycles {
						continue
					}
					flits += cnsFlits
					if when < keep {
						recs = append(recs, Record{
							Time: when, Src: rank, Dst: dst,
							Flits: cnsFlits, Class: classBestEffort,
						})
					}
				}
			}
		}
	}
	return recs, flits
}

// GenerateMOC synthesizes the 3D method-of-characteristics trace: a
// pipelined angular sweep. Rays cross the domain along octant directions,
// so each rank forwards partial angular fluxes to its three downstream
// neighbors per sweep step, and a fraction of the traffic is long-range
// (characteristics that span several ranks before re-entering the grid),
// giving MOC its mixed near/far structure.
func GenerateMOC(cycles int64, seed int64) *Trace {
	t := &Trace{Name: "hpc-moc", Ranks: HPCRanks, Cycles: cycles}
	t.reserveSteps(cycles, mocStep, gridLinks())
	t.Records, _ = moc(cycles, cycles, seed, t.Records)
	t.sortRecords()
	return t
}

// MOCFlits returns GenerateMOC(cycles, seed).TotalFlits() without storing
// a record.
func MOCFlits(cycles int64, seed int64) int64 {
	_, flits := moc(cycles, 0, seed, nil)
	return flits
}

// moc runs the MOC generator over cycles trace cycles. It appends to recs,
// in generation order, every record that falls before keep, and returns
// them with the flit total of every record before cycles.
func moc(cycles, keep, seed int64, recs []Record) ([]Record, int64) {
	r := rng(seed ^ 0x30C)
	const longFrac = 0.15 // long-range characteristic messages
	octants := [8][3]int{
		{1, 1, 1}, {-1, 1, 1}, {1, -1, 1}, {-1, -1, 1},
		{1, 1, -1}, {-1, 1, -1}, {1, -1, -1}, {-1, -1, -1},
	}
	var flits int64
	oct := 0
	for start := int64(0); start < cycles; start += mocStep {
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
				when := start + int64(r.Intn(mocSpan))
				if when >= cycles || dst == rank {
					continue
				}
				flits += mocFlits
				if when < keep {
					recs = append(recs, Record{
						Time: when, Src: rank, Dst: dst,
						Flits: mocFlits, Class: classBestEffort,
					})
				}
			}
		}
	}
	return recs, flits
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
