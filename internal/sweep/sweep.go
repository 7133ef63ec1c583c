// Package sweep runs independent experiment operating points concurrently
// on a bounded worker pool. The paper's evaluation (Sec. 8) is a large grid
// of independent {system} × {workload} × {offered rate} points; this
// package provides the point-level parallelism that complements the
// cycle-level parallelism of network.SetWorkers.
//
// Determinism: outcomes are returned in submission order regardless of the
// pool size or completion order, and a job must derive everything it needs
// (random sources included) from its own inputs — never from shared mutable
// state — so a sweep at Jobs=1 and Jobs=8 produces bit-identical results.
//
// Isolation: a job that panics or exceeds the per-job timeout is reported
// through its Outcome's Err/Panicked/TimedOut fields; sibling jobs and the
// sweep itself are unaffected.
package sweep

import (
	"fmt"
	"runtime/debug"
	"sync"
	"time"

	"heteroif/internal/stats"
)

// Job is one independent unit of work: typically "build an
// experiments.Instance, drive it, Measure a Result".
type Job[T any] struct {
	// Key identifies the point in progress reports, error messages and
	// result manifests (e.g. "fig11/uniform/hetero-phy-full").
	Key string
	// Run computes the point. It must be self-contained: safe to call
	// concurrently with every other job's Run.
	Run func() (T, error)
}

// Outcome is the result of one job. Exactly one of Value (on success) and
// Err (on failure) is meaningful; Failed distinguishes them.
type Outcome[T any] struct {
	Key string
	// Value is the job's return value; on failure it holds whatever Run
	// returned alongside the error (possibly partial results).
	Value T
	// Err is non-nil when the job returned an error, panicked, or timed
	// out.
	Err error
	// Panicked marks a recovered panic; Err carries the panic value and
	// stack.
	Panicked bool
	// TimedOut marks a job abandoned after Options.Timeout. Its goroutine
	// is left to finish in the background (the engine has no preemption
	// points), but its result is discarded and the pool slot is freed.
	TimedOut bool
	// Elapsed is the job's wall-clock time.
	Elapsed time.Duration
}

// Failed reports whether the job did not produce a usable result.
func (o *Outcome[T]) Failed() bool { return o.Err != nil }

// Progress is a snapshot passed to Options.OnProgress after each job
// completes.
type Progress struct {
	// Done and Total count jobs.
	Done, Total int
	// Failed counts completed jobs with a non-nil Err so far.
	Failed int
	// Elapsed is the wall-clock time since the sweep started.
	Elapsed time.Duration
	// ETA estimates the remaining wall-clock time from the running mean
	// job duration and the worker count. Zero when Done == Total.
	ETA time.Duration
}

// Options configures a sweep.
type Options struct {
	// Jobs is the worker-pool size; values <= 1 run the jobs sequentially
	// in submission order on the calling goroutine.
	Jobs int
	// Timeout bounds each job's wall-clock time (0 = unbounded).
	Timeout time.Duration
	// OnProgress, when non-nil, is called after every job completion. It
	// is never called concurrently.
	OnProgress func(Progress)
}

// Run executes the jobs on a pool of Options.Jobs workers and returns one
// outcome per job, in submission order.
func Run[T any](jobs []Job[T], o Options) []Outcome[T] {
	outs := make([]Outcome[T], len(jobs))
	if len(jobs) == 0 {
		return outs
	}
	workers := o.Jobs
	if workers > len(jobs) {
		workers = len(jobs)
	}

	start := time.Now()
	var mu sync.Mutex // guards done/failed/durations and OnProgress
	done, failed := 0, 0
	var durations stats.Running
	finish := func(i int) {
		if o.OnProgress == nil {
			return
		}
		mu.Lock()
		defer mu.Unlock()
		done++
		if outs[i].Err != nil {
			failed++
		}
		durations.Add(outs[i].Elapsed.Seconds())
		p := Progress{Done: done, Total: len(jobs), Failed: failed, Elapsed: time.Since(start)}
		if remaining := len(jobs) - done; remaining > 0 {
			w := workers
			if w < 1 {
				w = 1
			}
			p.ETA = time.Duration(durations.Mean() * float64(remaining) / float64(w) * float64(time.Second))
		}
		o.OnProgress(p)
	}

	if workers <= 1 {
		for i := range jobs {
			outs[i] = execute(jobs[i], o.Timeout)
			finish(i)
		}
		return outs
	}

	idx := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idx {
				outs[i] = execute(jobs[i], o.Timeout)
				finish(i)
			}
		}()
	}
	for i := range jobs {
		idx <- i
	}
	close(idx)
	wg.Wait()
	return outs
}

// execute runs one job with panic recovery and an optional wall-clock
// timeout.
func execute[T any](j Job[T], timeout time.Duration) Outcome[T] {
	out := Outcome[T]{Key: j.Key}
	start := time.Now()
	type result struct {
		value    T
		err      error
		panicked bool
	}
	ch := make(chan result, 1)
	go func() {
		var r result
		defer func() {
			if p := recover(); p != nil {
				r.panicked = true
				r.err = fmt.Errorf("sweep: job %s panicked: %v\n%s", j.Key, p, debug.Stack())
			}
			ch <- r
		}()
		r.value, r.err = j.Run()
	}()

	if timeout > 0 {
		select {
		case r := <-ch:
			out.Value, out.Err, out.Panicked = r.value, r.err, r.panicked
		case <-time.After(timeout):
			out.TimedOut = true
			out.Err = fmt.Errorf("sweep: job %s exceeded %s wall-clock timeout", j.Key, timeout)
		}
	} else {
		r := <-ch
		out.Value, out.Err, out.Panicked = r.value, r.err, r.panicked
	}
	out.Elapsed = time.Since(start)
	return out
}
