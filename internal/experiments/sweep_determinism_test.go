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

// TestRunJobsRecordsFailures: runJobs records every job in submission
// order — a success's Results, a failure's error, and each job's cost
// row — whatever the pool size,
// surfaces the failure as the sweep error, and returns the siblings'
// outcomes (it returns only after all jobs complete).
func TestRunJobsRecordsFailures(t *testing.T) {
	boom := errors.New("synthetic point failure")
	ok := func(key, system string) pointJob {
		return pointJob{key: key, run: func(*Cycles) ([]outcome, error) {
			return []outcome{{Result: Result{System: system, Rate: 0.1}}}, nil
		}}
	}
	jobs := []pointJob{
		ok("ok/a", "a"),
		{key: "bad/b", run: func(*Cycles) ([]outcome, error) { return nil, boom }},
		ok("ok/c", "c"),
	}
	for _, nj := range []int{1, 4} {
		m := NewManifest(Experiment{ID: "synthetic"}, "", Options{})
		outs, err := runJobs(Options{Jobs: nj, Manifest: m}, jobs)
		if !errors.Is(err, boom) {
			t.Fatalf("jobs=%d: error %v, want %v", nj, err, boom)
		}
		if len(outs) != 3 || outs[0][0].System != "a" || outs[1] != nil || outs[2][0].System != "c" {
			t.Fatalf("jobs=%d: outcomes %+v, want a, none, c", nj, outs)
		}
		if m.FailedPoints != 1 {
			t.Fatalf("jobs=%d: manifest failed_points = %d, want 1", nj, m.FailedPoints)
		}
		p := m.Points
		if len(p) != 3 || p[0].System != "a" || p[0].Failed ||
			p[1].Key != "bad/b" || !p[1].Failed || !strings.Contains(p[1].Err, "synthetic point failure") ||
			p[2].System != "c" || p[2].Failed {
			t.Fatalf("jobs=%d: manifest points %+v, want a, failed bad/b, c", nj, p)
		}
		if c := m.Costs; len(c) != 3 || c[0].Key != "ok/a" || c[1].Key != "bad/b" || c[2].Key != "ok/c" {
			t.Fatalf("jobs=%d: cost rows %+v, want ok/a, bad/b, ok/c", nj, c)
		}
	}
}
