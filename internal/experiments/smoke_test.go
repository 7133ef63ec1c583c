package experiments

import (
	"bytes"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"runtime"
	"slices"
	"strings"
	"testing"

	"heteroif/internal/sweep"
)

// registryGolden pins every experiment's Tiny-scale run: an FNV-64a digest
// of its manifest Points and Tables (as JSON) followed by its stdout. A
// change to any reported number or printed line of the reproduction shows
// here, under the name of the experiment that moved. A change that moves
// one on purpose re-records it: the failure message prints the literal.
var registryGolden = map[string]uint64{
	"table1":      0x70a143220d6e2e2d,
	"fig08":       0x9537a465516c7465,
	"fig11":       0xe86048c44daf2ba4,
	"fig12":       0xfdf49f4c1ff9eed4,
	"fig13":       0xe4e7c9cd178dcba0,
	"fig14":       0x1f4d24cff785bcfd,
	"fig15":       0xcf52ab50b1ed9e98,
	"table3":      0xe7f903e0fd1e3b9e,
	"table4":      0x23afc1d318d2af6c,
	"fig16":       0x5da931a5d48c54c6,
	"fig17":       0xa042614f6a5b88df,
	"fig18":       0xa1e155b5c01f2211,
	"topo":        0x9890bd5d35ace851,
	"economy":     0xfa2967ed168c096e,
	"linkfail":    0xc2f25c5effa5dd7e,
	"fault":       0x84719c3aa359ab7b,
	"compromised": 0x407e8545ff42f00a,
	"collective":  0x1d4df974a305d5c7,
}

// tinyEffects holds, per experiment, a check that the effect its report is
// about acts at Tiny scale too; a digest of a run where it does not pins
// nothing about it.
var tinyEffects = map[string]func(t *testing.T, pts []ManifestPoint){
	"linkfail": killedLinksMatter,
	"fig16":    eq5BiasActs,
	"fig17":    eq5BiasActs,
}

// scenarioJobs names, per experiment, the pool jobs that record no point:
// scripted scenarios whose outcome feeds a table. Only their cost row
// shows that the pool ran them, so it must show cycles stepped.
var scenarioJobs = map[string][]string{
	"fault":      {"fault/serial-down/serial-preferred", "fault/serial-down/failover+serial-preferred"},
	"collective": {"collective/hetero-phy-failover/allreduce-64"},
}

// killedLinksMatter requires every point with links killed to read another
// mean latency than its system's point with none killed.
func killedLinksMatter(t *testing.T, pts []ManifestPoint) {
	healthy := map[string]float64{}
	for _, p := range pts {
		if p.Workload == "uniform-0-killed" {
			healthy[p.System] = p.MeanLatency
		}
	}
	for _, p := range pts {
		if h, ok := healthy[p.System]; !ok {
			t.Errorf("%s has no 0-killed point", p.System)
		} else if p.Workload != "uniform-0-killed" && p.MeanLatency == h {
			t.Errorf("%s %s reads the 0-killed mean latency %v: no packet crossed a killed link", p.System, p.Workload, h)
		}
	}
}

// eq5BiasActs requires the hetero-channel point with the Eq. 5 energy bias
// to read another energy per packet than the one without.
func eq5BiasActs(t *testing.T, pts []ManifestPoint) {
	energy := map[string]float64{}
	for _, p := range pts {
		energy[p.System] = p.EnergyPJ
	}
	full, eff := energy["hetero-channel-full"], energy["hetero-channel-energy-eff"]
	if full == 0 || full == eff {
		t.Errorf("hetero-channel-energy-eff reads %v pJ per packet, hetero-channel-full %v: the Eq. 5 bias changed nothing", eff, full)
	}
}

// checkRegistryGolden compares one experiment's digest with its pinned
// value. The energies are sums of float64 products, which arm64 and friends
// may fuse, so the constants are only binding where they were recorded.
func checkRegistryGolden(t *testing.T, id string, m *Manifest, stdout []byte) {
	t.Helper()
	rows, err := json.Marshal(struct {
		P []ManifestPoint
		T map[string][][]string
	}{m.Points, m.Tables})
	if err != nil {
		t.Fatal(err)
	}
	h := fnv.New64a()
	h.Write(rows)
	h.Write(stdout)
	if got := h.Sum64(); runtime.GOARCH == "amd64" && got != registryGolden[id] {
		t.Errorf("%s diverged from its pinned Tiny-scale digest; if intended, re-record:\n\t%q: %#x,", id, id, got)
	}
}

// TestEveryExperimentSmokes runs the complete registry at Tiny scale: every
// runner must execute without error, produce output, and write its CSV, and
// its manifest rows and output must equal the pinned digest. The digests
// were recorded on one job; running the points through a pool of one job
// per CPU also holds every experiment to results independent of -jobs. An
// experiment whose pool completed a job must record a point, and no two of
// its points may share (system, workload, offered_rate), which is how the
// manifest tells successful points apart; every job must leave one cost
// row, the scenario jobs of scenarioJobs one with cycles stepped; and the
// effects in tinyEffects must show.
// This is the regression net for the experiment harness itself; the
// CI-scale and paper-scale runs happen through cmd/hetsim and the root
// benchmarks.
func TestEveryExperimentSmokes(t *testing.T) {
	if testing.Short() {
		t.Skip("smoke suite takes ~a minute")
	}
	dir := t.TempDir()
	for _, e := range Registry {
		t.Run(e.ID, func(t *testing.T) {
			done := 0
			o := Options{Tiny: true, CSVDir: dir, Jobs: runtime.GOMAXPROCS(0),
				Progress: func(sweep.Progress) { done++ }}
			o.Manifest = NewManifest(e, "", o)
			var buf bytes.Buffer
			if err := e.Run(o, &buf); err != nil {
				t.Fatalf("%s: %v", e.ID, err)
			}
			if buf.Len() == 0 {
				t.Fatalf("%s produced no output", e.ID)
			}
			if strings.Contains(buf.String(), "NaN") {
				t.Errorf("%s output contains NaN:\n%s", e.ID, buf.String())
			}
			if done > 0 && len(o.Manifest.Points) == 0 {
				t.Errorf("%s completed %d pool jobs but recorded no point", e.ID, done)
			}
			if len(o.Manifest.Costs) != done {
				t.Errorf("%s completed %d pool jobs but recorded %d cost rows", e.ID, done, len(o.Manifest.Costs))
			}
			seen := map[string]bool{}
			for _, p := range o.Manifest.Points {
				id := fmt.Sprintf("%s/%s/%g", p.System, p.Workload, p.Rate)
				if seen[id] {
					t.Errorf("%s records two points as %s", e.ID, id)
				}
				seen[id] = true
			}
			for _, key := range scenarioJobs[e.ID] {
				i := slices.IndexFunc(o.Manifest.Costs, func(c JobCost) bool { return c.Key == key })
				if i < 0 || o.Manifest.Costs[i].Stepped == 0 {
					t.Errorf("%s has no cost row with stepped cycles for %s", e.ID, key)
				}
			}
			if check := tinyEffects[e.ID]; check != nil {
				check(t, o.Manifest.Points)
			}
			checkRegistryGolden(t, e.ID, o.Manifest, buf.Bytes())
		})
	}
}
