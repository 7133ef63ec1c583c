package main

import (
	"fmt"
	"io"
	"math"
	"slices"
	"sort"
	"strings"
)

// quartiles returns the first quartile, median and third quartile of vs as
// Python's statistics.quantiles(vs, n=4) computes them (exclusive method),
// so spreads read the same as the driver's. A single value is its own
// quartiles.
func quartiles(vs []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	n := len(s)
	switch n {
	case 0:
		return math.NaN(), math.NaN(), math.NaN()
	case 1:
		return s[0], s[0], s[0]
	}
	q := func(i int) float64 {
		m := n + 1
		j := min(max(i*m/4, 1), n-1)
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return q(1), q(2), q(3)
}

// setupFloor is the absolute allowance on setup_s, in seconds: its bound is
// the relative one or this, whichever is larger.
const setupFloor = 0.020

// verdict words of the noise protocol.
const (
	improved   = "improved"
	unchanged  = "unchanged"
	regressed  = "regressed"
	unresolved = "unresolved" // run-to-run spread wider than the bound
	changed    = "changed"    // an exact per-layer count differs; no direction is judged
	info       = "-"          // per-layer host time: reported, not judged
)

// judge compares set b against base set a for one metric.
func judge(m *metric, bound float64, exact bool, a, b []float64) string {
	q1a, ma, q3a := quartiles(a)
	q1b, mb, q3b := quartiles(b)
	sign := 1.0
	if m.Better == higher {
		sign = -1
	}
	// worse: the share of a's median by which b's median is worse
	// (negative = better); spread: the wider quartile distance of the two.
	var worse, spread float64
	if ma != 0 {
		worse = sign * (mb - ma) / math.Abs(ma)
		spread = (q3a - q1a) / math.Abs(ma)
	} else if mb != 0 {
		worse = sign * math.Copysign(math.Inf(1), mb)
	}
	if mb != 0 {
		spread = max(spread, (q3b-q1b)/math.Abs(mb))
	}
	switch {
	case slices.Equal(a, b):
		// A set compared with itself: no spread can make that unresolved.
		return unchanged
	case exact:
		// Deterministic for a fixed seed: integers compare exactly,
		// floats to 1e-9 relative.
		switch {
		case math.Abs(mb-ma) <= 1e-9*math.Abs(ma):
			return unchanged
		case bound == 0:
			return changed
		case worse > 0:
			return regressed
		default:
			return improved
		}
	case bound == 0:
		return info
	case spread > bound:
		// Too noisy to call, unless the two sets do not even overlap.
		sa, sb := append([]float64(nil), a...), append([]float64(nil), b...)
		sort.Float64s(sa)
		sort.Float64s(sb)
		bBetter := sign*(sb[len(sb)-1]-sa[0]) < 0 && sign*(sb[0]-sa[len(sa)-1]) < 0
		if bBetter {
			return improved
		}
		return unresolved
	case worse > bound:
		return regressed
	case worse < -bound:
		return improved
	}
	return unchanged
}

// compareLedgers prints, per workload and metric, both sets' medians and
// quartiles, the ratio with its base, and a verdict against the metric's
// bound. It reports whether anything regressed (an end-to-end metric beyond
// its bound, or a higher share of failed operations) and, for two sets made
// from the same seed and scale, whether the simulation changed: a differing
// sim_digest or any exact metric that is not bit-for-bit equal. A change
// meant only to speed the simulator up must leave simChanged false.
//
// Each side is one ledger or a comma-separated list of ledgers whose
// samples are pooled: on a host whose speed drifts over minutes, two sets
// agree only when their runs were interleaved (A1 B1 B2 A2 ...).
func compareLedgers(w io.Writer, pathA, pathB string) (anyRegressed, simChanged bool, err error) {
	la, err := readSet(pathA)
	if err != nil {
		return false, false, err
	}
	lb, err := readSet(pathB)
	if err != nil {
		return false, false, err
	}
	// Simulated values are comparable exactly only for identical inputs.
	sameInputs := la.Provenance.Seed != 0 && la.Provenance.Seed == lb.Provenance.Seed && la.Provenance.Scale == lb.Provenance.Scale
	fmt.Fprintf(w, "A = %s (git %s, seed %d)\nB = %s (git %s, seed %d)\n",
		pathA, la.Provenance.Git, la.Provenance.Seed, pathB, lb.Provenance.Git, lb.Provenance.Seed)

	byName := make(map[string]*result)
	for _, r := range lb.Workloads {
		byName[r.Workload] = r
	}
	counts := make(map[string]int)
	for _, ra := range la.Workloads {
		rb := byName[ra.Workload]
		if rb == nil || ra.Skipped != "" || rb.Skipped != "" {
			fmt.Fprintf(w, "\n## %s: not in both ledgers, skipped\n", ra.Workload)
			continue
		}
		fmt.Fprintf(w, "\n## %s: ops failed A %d/%d, B %d/%d; sim_digest A %s, B %s\n",
			ra.Workload, ra.OpsFailed, ra.OpsTotal, rb.OpsFailed, rb.OpsTotal, ra.SimDigest, rb.SimDigest)
		if share(rb) > share(ra) {
			fmt.Fprintf(w, "%s: failed-operation share rose from %.4f to %.4f\n", regressed, share(ra), share(rb))
			anyRegressed = true
		}
		if sameInputs && ra.SimDigest != rb.SimDigest {
			fmt.Fprintf(w, "%s: sim_digest differs for the same seed and scale\n", changed)
			simChanged = true
		}
		names := make([]string, 0, len(ra.Metrics))
		for n := range ra.Metrics {
			if _, ok := rb.Metrics[n]; ok && metricByName[n] != nil {
				names = append(names, n)
			}
		}
		sort.Strings(names)
		fmt.Fprintf(w, "%-38s %-10s %13s %13s %13s   %13s %13s %13s   %s\n",
			"metric", "verdict", "A q1", "A median", "A q3", "B q1", "B median", "B q3", "B/A (base = A median)")
		for _, n := range names {
			m := metricByName[n]
			a, b := samples(ra.Metrics[n]), samples(rb.Metrics[n])
			q1a, ma, q3a := quartiles(a)
			q1b, mb, q3b := quartiles(b)
			bound := m.Bound
			if n == "setup_s" && ma > 0 {
				// Set-up takes tens of milliseconds: below setupFloor a
				// difference is scheduling, not work.
				bound = max(bound, setupFloor/ma)
			}
			verdict := judge(m, bound, m.Exact && sameInputs, a, b)
			ratio := "n/a"
			if ma != 0 {
				ratio = fmt.Sprintf("%.4f (base %.6g %s)", mb/ma, ma, m.Unit)
			}
			fmt.Fprintf(w, "%-38s %-10s %13.6g %13.6g %13.6g   %13.6g %13.6g %13.6g   %s\n",
				n, verdict, q1a, ma, q3a, q1b, mb, q3b, ratio)
			if m.Bound > 0 { // end-to-end
				counts[verdict]++
				anyRegressed = anyRegressed || verdict == regressed
			} else if verdict == changed {
				counts[changed]++
			}
			if m.Exact && sameInputs && verdict != unchanged {
				simChanged = true
			}
		}
	}
	fmt.Fprintf(w, "\nend-to-end: %d improved, %d unchanged, %d regressed, %d unresolved; per-layer exact counts changed: %d\n",
		counts[improved], counts[unchanged], counts[regressed], counts[unresolved], counts[changed])
	if simChanged {
		fmt.Fprintln(w, "simulated results differ for the same seed and scale: this is not a speed-only change")
	}
	return anyRegressed, simChanged, nil
}

// readSet reads the ledgers named by a comma-separated list and pools them
// into one: per workload and metric the samples are concatenated, the
// operation counts added. Ledgers of different seeds or scales pool into a
// set with seed 0, which compares exactly with nothing.
func readSet(paths string) (*ledger, error) {
	var set *ledger
	for _, path := range strings.Split(paths, ",") {
		l, err := readLedger(path)
		if err != nil {
			return nil, err
		}
		if set == nil {
			set = l
			for _, r := range set.Workloads {
				for n, v := range r.Metrics {
					v.Raw = samples(v)
					r.Metrics[n] = v
				}
			}
			continue
		}
		if l.Provenance.Seed != set.Provenance.Seed || l.Provenance.Scale != set.Provenance.Scale {
			set.Provenance.Seed = 0
		}
		byName := make(map[string]*result)
		for _, r := range set.Workloads {
			byName[r.Workload] = r
		}
		for _, r := range l.Workloads {
			into := byName[r.Workload]
			if into == nil {
				set.Workloads = append(set.Workloads, r)
				continue
			}
			into.OpsTotal += r.OpsTotal
			into.OpsFailed += r.OpsFailed
			if r.SimDigest != into.SimDigest {
				into.SimDigest = "mixed"
			}
			for n, v := range r.Metrics {
				pooled := into.Metrics[n]
				pooled.Raw = append(pooled.Raw, samples(v)...)
				into.Metrics[n] = pooled
			}
		}
	}
	return set, nil
}

func share(r *result) float64 {
	if r.OpsTotal == 0 {
		return 0
	}
	return float64(r.OpsFailed) / float64(r.OpsTotal)
}

// samples returns a metric's per-repetition values, or its single value
// when none were kept.
func samples(v value) []float64 {
	if len(v.Raw) > 0 {
		return v.Raw
	}
	return []float64{v.Value}
}
