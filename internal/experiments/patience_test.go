package experiments

import (
	"regexp"
	"slices"
	"testing"

	"heteroif/internal/core"
	"heteroif/internal/fault"
	"heteroif/internal/network"
)

// TestPatienceFormula holds simPoint.patience to its rule on Table 2
// delays (longest 20 cycles, so a 96-cycle default retry timeout and a
// base of 4 × (20 + 1 + 96) = 468 cycles).
func TestPatienceFormula(t *testing.T) {
	const base = 4 * (20 + 1 + 96)
	failover := int64(2*256 + 256 + 512) // NewFailoverPolicy's RecoverWindows·Window + ProbeInterval + EvictAge
	pt := func(threshold int64, pol core.Policy, ev ...fault.Event) simPoint {
		cfg := network.DefaultConfig()
		cfg.DeadlockThreshold = threshold
		p := simPoint{Cfg: cfg}
		p.Spec.Policy = pol
		if ev != nil {
			p.Faults = &fault.Config{Events: ev}
		}
		return p
	}
	burst := fault.Event{Kind: fault.EventDown, Link: -1, Phy: fault.PhySerial, From: 100, To: 5100}
	for _, tc := range []struct {
		name string
		p    simPoint
		want int64
	}{
		{"a bare point is floored", pt(20000, nil), minPatience},
		{"a scripted window outlasts the base", pt(20000, nil, burst, serialDownAt(300)[0]), base + 5000},
		{"failover adds its timers", pt(20000, core.NewFailoverPolicy(nil)), 4 * (20 + 1 + 96 + failover)},
		{"never above the configured threshold", pt(3000, core.NewFailoverPolicy(nil)), 3000},
		{"never below the floor, unless that is above the threshold", pt(500, nil), 500},
		{"the watchdog off stays off", pt(0, core.NewFailoverPolicy(nil), burst), 0},
	} {
		if got := tc.p.patience(); got != tc.want {
			t.Errorf("%s: patience %d, want %d", tc.name, got, tc.want)
		}
	}
	// An explicit retry timeout replaces the default one.
	p := pt(20000, core.NewFailoverPolicy(nil))
	p.Faults = &fault.Config{Timeout: 500}
	if got, want := p.patience(), 4*(20+1+500+failover); got != want {
		t.Errorf("a 500-cycle retry timeout: patience %d, want %d", got, want)
	}
}

// atCycle is the cycle an error names.
var atCycle = regexp.MustCompile(`at cycle \d+`)

// TestPatienceKeepsVerdicts runs every point that ends in the watchdog, and
// the failover run that must survive the same outage, once at its patience
// and once at the flat 20,000-cycle threshold: both must give the same
// verdict, injected and delivered counts and error, the cycle the watchdog
// fired at aside: what is stuck does not change while nothing moves. The
// points are
// the fault experiment's serial outage at Tiny scale and the simCorpus
// seeds that want "deadlock detected", plus hostile/serial-down+failover.
func TestPatienceKeepsVerdicts(t *testing.T) {
	if testing.Short() {
		t.Skip("runs each point twice, once 20,000 cycles frozen")
	}
	o := Options{Tiny: true}
	points := map[string]simPoint{
		"fault/serial-down/serial-preferred":          outagePoint(o, "serial-preferred", serialPreferred{}),
		"fault/serial-down/failover+serial-preferred": outagePoint(o, "failover+serial-preferred", core.NewFailoverPolicy(serialPreferred{})),
	}
	for _, s := range simCorpus {
		if s.want == "deadlock detected" || s.name == "hostile/serial-down+failover" {
			points[s.name] = s.c.point(1)
		}
	}
	if len(points) != 2+7 {
		t.Fatalf("%d points, want the two outage runs and seven seeds", len(points))
	}
	keys := make([]string, 0, len(points))
	for k := range points {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	for _, name := range keys {
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			p := points[name]
			// A drain long enough for the flat watchdog to fire in it.
			p.Cfg.DeadlockThreshold, p.Cfg.DrainCycles = 20000, 40000
			run := func(flat bool) (outcome, string) {
				q := p
				if flat {
					q.Hook = func(in *Instance) error {
						in.Net.Cfg.DeadlockThreshold = 20000
						return nil
					}
				}
				out, err := q.run()
				if err == nil {
					return out, ""
				}
				if !diagnostic.MatchString(err.Error()) {
					t.Fatalf("flat=%v: run ended in %q, which names no known cause", flat, err)
				}
				return out, atCycle.ReplaceAllString(err.Error(), "at cycle N")
			}
			fast, fastErr := run(false)
			flat, flatErr := run(true)
			t.Logf("%d cycles stepped at patience %d, %d at 20,000; error %q",
				fast.cycles.Stepped, p.patience(), flat.cycles.Stepped, fastErr)
			if fastErr != flatErr || fast.Injected != flat.Injected || fast.Delivered != flat.Delivered {
				t.Errorf("at its patience %d the point ended in %q with %d of %d packets delivered; at 20,000 in %q with %d of %d",
					p.patience(), fastErr, fast.Delivered, fast.Injected, flatErr, flat.Delivered, flat.Injected)
			}
		})
	}
}
