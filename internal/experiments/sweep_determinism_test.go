package experiments

import (
	"bytes"
	"errors"
	"reflect"
	"strings"
	"testing"
)

// TestSweepDeterminism is the contract behind the -jobs flag: a sweep at
// -jobs 1 and at a larger pool must produce identical Result rows (and
// identical human-readable output) — parallelism may only change wall-clock
// time. fig11 is the synthetic sweep; fig13 shares one generated trace
// read-only between the pool's replay jobs.
func TestSweepDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("runs fig11 and fig13 twice at tiny scale")
	}
	for _, c := range []struct {
		id   string
		jobs int
	}{{"fig11", 8}, {"fig13", 4}} {
		t.Run(c.id, func(t *testing.T) {
			e, err := ByID(c.id)
			if err != nil {
				t.Fatal(err)
			}
			run := func(jobs int) (*Manifest, string) {
				o := Options{Tiny: true, Jobs: jobs}
				o.Manifest = NewManifest(e, "test", o)
				var buf bytes.Buffer
				if err := e.Run(o, &buf); err != nil {
					t.Fatalf("%s at jobs=%d: %v", c.id, jobs, err)
				}
				return o.Manifest, buf.String()
			}
			m1, out1 := run(1)
			mN, outN := run(c.jobs)

			if len(m1.Points) == 0 {
				t.Fatalf("%s recorded no points", c.id)
			}
			if !reflect.DeepEqual(m1.Points, mN.Points) {
				t.Errorf("Result rows differ between jobs=1 and jobs=%d:\n jobs=1: %+v\n jobs=%d: %+v",
					c.jobs, m1.Points, c.jobs, mN.Points)
			}
			if out1 != outN {
				t.Errorf("human-readable output differs between jobs=1 and jobs=%d:\n--- jobs=1 ---\n%s\n--- jobs=%d ---\n%s",
					c.jobs, out1, c.jobs, outN)
			}
			if m1.FailedPoints != 0 || mN.FailedPoints != 0 {
				t.Errorf("unexpected failed points: %d / %d", m1.FailedPoints, mN.FailedPoints)
			}
		})
	}
}

// TestRunJobsRecordsFailures: a failing point must be recorded in the
// manifest and surfaced as the sweep error, while sibling points still
// deliver their results (runJobs returns only after all jobs complete).
func TestRunJobsRecordsFailures(t *testing.T) {
	boom := errors.New("synthetic point failure")
	jobs := []pointJob{
		point("ok/a", func() (Result, error) {
			return Result{System: "a", Rate: 0.1}, nil
		}),
		point("bad/b", func() (Result, error) {
			return Result{}, boom
		}),
		point("ok/c", func() (Result, error) {
			return Result{System: "c", Rate: 0.3}, nil
		}),
	}
	for _, nj := range []int{1, 4} {
		m := NewManifest(Experiment{ID: "synthetic"}, "", Options{})
		res, err := runJobs(Options{Jobs: nj, Manifest: m}, jobs)
		if !errors.Is(err, boom) {
			t.Fatalf("jobs=%d: error %v, want %v", nj, err, boom)
		}
		if len(res) != 3 || res[0][0].System != "a" || res[2][0].System != "c" {
			t.Fatalf("jobs=%d: sibling results lost: %+v", nj, res)
		}
		if res[1] != nil {
			t.Fatalf("jobs=%d: failed job returned results: %+v", nj, res[1])
		}
		if m.FailedPoints != 1 {
			t.Fatalf("jobs=%d: manifest failed_points = %d, want 1", nj, m.FailedPoints)
		}
		// Points holds only the failure here: successes are recorded later
		// by emitResults, not by runJobs.
		if len(m.Points) != 1 || m.Points[0].Key != "bad/b" || !m.Points[0].Failed ||
			!strings.Contains(m.Points[0].Err, "synthetic point failure") {
			t.Fatalf("jobs=%d: failure not recorded correctly: %+v", nj, m.Points)
		}
	}
}
