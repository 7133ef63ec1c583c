package sweep

import (
	"errors"
	"fmt"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// square returns jobs whose results depend only on their inputs, with
// deliberately uneven durations so completion order differs from
// submission order under a pool.
func squares(n int) []Job[int] {
	jobs := make([]Job[int], n)
	for i := range jobs {
		i := i
		jobs[i] = Job[int]{
			Key: fmt.Sprintf("sq/%d", i),
			Run: func() (int, error) {
				time.Sleep(time.Duration((n-i)%7) * time.Millisecond)
				return i * i, nil
			},
		}
	}
	return jobs
}

func TestRunOrderingDeterministicAcrossPoolSizes(t *testing.T) {
	want := Run(squares(40), Options{Jobs: 1})
	for _, pool := range []int{2, 8, 64} {
		got := Run(squares(40), Options{Jobs: pool})
		for i := range want {
			if got[i].Key != want[i].Key || got[i].Value != want[i].Value {
				t.Fatalf("pool %d: outcome %d = (%s, %d), want (%s, %d)",
					pool, i, got[i].Key, got[i].Value, want[i].Key, want[i].Value)
			}
			if got[i].Failed() {
				t.Fatalf("pool %d: job %s unexpectedly failed: %v", pool, got[i].Key, got[i].Err)
			}
		}
	}
}

// TestPanicIsolation: a panicking job is reported as failed while every
// sibling completes normally — at pool size 1 and under a pool.
func TestPanicIsolation(t *testing.T) {
	for _, pool := range []int{1, 4} {
		jobs := []Job[int]{
			{Key: "ok/0", Run: func() (int, error) { return 1, nil }},
			{Key: "boom", Run: func() (int, error) { panic("kaboom") }},
			{Key: "ok/2", Run: func() (int, error) { return 3, nil }},
		}
		outs := Run(jobs, Options{Jobs: pool})
		if !outs[1].Failed() || !outs[1].Panicked {
			t.Fatalf("pool %d: panicking job not reported: %+v", pool, outs[1])
		}
		if msg := outs[1].Err.Error(); !strings.Contains(msg, "kaboom") || !strings.Contains(msg, "boom") {
			t.Fatalf("pool %d: panic error lacks context: %v", pool, outs[1].Err)
		}
		for i, want := range map[int]int{0: 1, 2: 3} {
			if outs[i].Failed() || outs[i].Value != want {
				t.Fatalf("pool %d: sibling %s did not complete: %+v", pool, outs[i].Key, outs[i])
			}
		}
	}
}

func TestJobErrorKeepsPartialValue(t *testing.T) {
	jobs := []Job[[]int]{{
		Key: "partial",
		Run: func() ([]int, error) { return []int{1, 2}, errors.New("stopped early") },
	}}
	outs := Run(jobs, Options{})
	if !outs[0].Failed() {
		t.Fatal("error not reported")
	}
	if !reflect.DeepEqual(outs[0].Value, []int{1, 2}) {
		t.Fatalf("partial value lost: %v", outs[0].Value)
	}
}

func TestTimeoutIsolation(t *testing.T) {
	release := make(chan struct{})
	defer close(release)
	jobs := []Job[int]{
		{Key: "fast", Run: func() (int, error) { return 7, nil }},
		{Key: "hung", Run: func() (int, error) { <-release; return 0, nil }},
		{Key: "also-fast", Run: func() (int, error) { return 9, nil }},
	}
	outs := Run(jobs, Options{Jobs: 2, Timeout: 20 * time.Millisecond})
	if !outs[1].TimedOut || !outs[1].Failed() {
		t.Fatalf("hung job not timed out: %+v", outs[1])
	}
	if outs[0].Value != 7 || outs[2].Value != 9 || outs[0].Failed() || outs[2].Failed() {
		t.Fatalf("siblings disturbed by timeout: %+v %+v", outs[0], outs[2])
	}
}

func TestProgressReporting(t *testing.T) {
	const n = 10
	var calls int32
	var lastDone int
	var lastETA time.Duration
	prev := -1
	outs := Run(squares(n), Options{Jobs: 3, OnProgress: func(p Progress) {
		atomic.AddInt32(&calls, 1)
		if p.Total != n {
			t.Errorf("progress total %d, want %d", p.Total, n)
		}
		if p.Done <= prev {
			t.Errorf("progress done %d not monotonically increasing after %d", p.Done, prev)
		}
		prev = p.Done
		lastDone, lastETA = p.Done, p.ETA
	}})
	if len(outs) != n {
		t.Fatalf("got %d outcomes", len(outs))
	}
	if calls != n {
		t.Fatalf("progress called %d times, want %d", calls, n)
	}
	if lastDone != n || lastETA != 0 {
		t.Fatalf("final progress done=%d eta=%v, want done=%d eta=0", lastDone, lastETA, n)
	}
}

func TestEmptyAndOversizedPool(t *testing.T) {
	if outs := Run[int](nil, Options{Jobs: 8}); len(outs) != 0 {
		t.Fatalf("empty job list produced %d outcomes", len(outs))
	}
	outs := Run(squares(2), Options{Jobs: 100}) // pool larger than job count
	if len(outs) != 2 || outs[0].Value != 0 || outs[1].Value != 1 {
		t.Fatalf("oversized pool mangled outcomes: %+v", outs)
	}
}
