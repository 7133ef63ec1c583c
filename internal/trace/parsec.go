package trace

import "fmt"

// parsecProfile captures the statistical shape of one Netrace PARSEC
// workload on a 64-core CMP: how often cores issue memory-system requests,
// how bursty they are, and how much of the traffic is bulk data. Profiles
// are calibrated to the qualitative characterization in the Netrace report
// [33] (region-of-interest averages): cache-thrashing workloads (canneal)
// run hot, compute-bound ones (blackscholes, swaptions) run cold.
type parsecProfile struct {
	name string
	// reqRate is the per-core request probability per cycle.
	reqRate float64
	// dataFrac is the fraction of requests that miss to data (triggering a
	// 9-flit reply; the rest get 1-flit control replies).
	dataFrac float64
	// burstLen is the mean burst length (requests issued back-to-back).
	burstLen float64
	// locality is the probability a request targets the core's local L2
	// slice neighborhood instead of an address-hashed bank.
	locality float64
}

// parsecProfiles lists the evaluated workloads. Rates are chosen so the
// 64-node systems operate below saturation (PARSEC traffic is light; the
// paper's Fig. 12 compares zero-load-dominated latencies).
var parsecProfiles = []parsecProfile{
	{"blackscholes", 0.0020, 0.35, 1.2, 0.30},
	{"bodytrack", 0.0045, 0.40, 1.6, 0.25},
	{"canneal", 0.0120, 0.55, 2.5, 0.10},
	{"dedup", 0.0085, 0.50, 2.0, 0.20},
	{"ferret", 0.0070, 0.45, 1.8, 0.20},
	{"fluidanimate", 0.0060, 0.45, 1.5, 0.35},
	{"swaptions", 0.0015, 0.30, 1.1, 0.30},
	{"vips", 0.0075, 0.50, 1.7, 0.25},
	{"x264", 0.0095, 0.55, 2.2, 0.15},
}

// PARSECWorkloads returns the available workload names.
func PARSECWorkloads() []string {
	out := make([]string, len(parsecProfiles))
	for i, p := range parsecProfiles {
		out[i] = p.name
	}
	return out
}

// PARSECRanks is the trace rank count (64-core multiprocessors, Sec. 7.2).
const PARSECRanks = 64

// ClassOf values used by the generators.
const (
	classInOrder    = 1 // must match network.ClassInOrder
	classBestEffort = 0 // must match network.ClassBestEffort
)

// GeneratePARSEC synthesizes a Netrace-like trace for the named workload:
// 64 ranks, request/reply memory-system traffic with 1-flit (8 B) requests
// and control replies and 9-flit (72 B) data replies, in-order class
// (coherence traffic requires ordering, Sec. 4.2). Duration is `cycles`.
func GeneratePARSEC(workload string, cycles int64, seed int64) (*Trace, error) {
	var prof *parsecProfile
	for i := range parsecProfiles {
		if parsecProfiles[i].name == workload {
			prof = &parsecProfiles[i]
			break
		}
	}
	if prof == nil {
		return nil, fmt.Errorf("trace: unknown PARSEC workload %q (have %v)", workload, PARSECWorkloads())
	}
	r := rng(seed ^ int64(len(workload))*7919)
	t := &Trace{
		Name:   "parsec-" + workload,
		Ranks:  PARSECRanks,
		Cycles: cycles,
	}
	// L2 banks are interleaved across all ranks (each node hosts a slice),
	// the usual tiled-CMP arrangement.
	const serviceDelay = 20 // L2 lookup before the reply leaves
	burst := 0
	for src := int32(0); src < PARSECRanks; src++ {
		for now := int64(0); now < cycles; now++ {
			issue := false
			if burst > 0 {
				issue = true
				burst--
			} else if r.Float64() < prof.reqRate {
				issue = true
				if r.Float64() < (prof.burstLen-1)/prof.burstLen {
					burst = int(prof.burstLen)
				}
			}
			if !issue {
				continue
			}
			bank := src
			if r.Float64() < prof.locality {
				// Neighboring slice (same row of the 8×8 logical grid).
				bank = (src & ^int32(7)) + int32(r.Intn(8))
			} else {
				bank = int32(r.Intn(PARSECRanks))
			}
			if bank == src {
				bank = (bank + 1) % PARSECRanks
			}
			// Request: 1 flit (8 B). Coherence requests are the
			// order-critical traffic (Sec. 4.2), so they carry the
			// in-order class and exercise the reorder buffer.
			t.Records = append(t.Records, Record{Time: now, Src: src, Dst: bank, Flits: 1, Class: classInOrder})
			// Reply after the service delay: 9 flits (72 B) on a data
			// miss, 1 flit otherwise. Replies are causally ordered by the
			// request-response protocol itself and ride best-effort.
			replyLen := int32(1)
			if r.Float64() < prof.dataFrac {
				replyLen = 9
			}
			t.Records = append(t.Records, Record{Time: now + serviceDelay, Src: bank, Dst: src, Flits: replyLen, Class: classBestEffort})
		}
	}
	t.sortRecords()
	return t, nil
}
