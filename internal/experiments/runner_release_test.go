package experiments

import (
	"errors"
	"runtime"
	"runtime/debug"
	"testing"
	"time"

	"heteroif/internal/network"
	"heteroif/internal/traffic"
)

// TestPointReleasesWorkers: a point built with Workers > 1 stops its shard
// goroutines when it returns — after a measured run, and when its hook
// fails after stepping once (the first Step starts them). Collection is
// switched off for the duration, so the network's finalizer backstop
// cannot be what stops them. Workers: 4 means three real worker goroutines
// on any host once the point steps, and the failing hook checks that they
// are running before it fails.
func TestPointReleasesWorkers(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	v := heteroPHYVariants(baseConfig(Options{Tiny: true, Workers: 4}), 2, 2, 4, 4)[2]
	v.Pattern, v.Rate = traffic.Uniform{}, 0.1
	failing := v
	boom := errors.New("hook refused")
	started := 0
	failing.Hook = func(in *Instance) error {
		in.Net.Step()
		started = runtime.NumGoroutine()
		return boom
	}

	for _, tc := range []struct {
		name string
		p    simPoint
		want error
	}{{"measured", v, nil}, {"hook error", failing, boom}} {
		t.Run(tc.name, func(t *testing.T) {
			before := runtime.NumGoroutine()
			out, err := tc.p.run()
			if !errors.Is(err, tc.want) {
				t.Fatalf("run: %v, want %v", err, tc.want)
			}
			if err == nil && out.Packets == 0 {
				t.Fatal("point measured no packets")
			}
			if err != nil && started < before+3 {
				t.Fatalf("the failing hook ran beside %d goroutines, want at least %d (three workers)", started, before+3)
			}
			// SetWorkers(0) waits for every worker to leave its loop; the
			// goroutines themselves finish a few instructions later.
			for deadline := time.Now().Add(10 * time.Second); runtime.NumGoroutine() > before; runtime.Gosched() {
				if time.Now().After(deadline) {
					t.Fatalf("%d goroutines outlive the point", runtime.NumGoroutine()-before)
				}
			}
		})
	}
}

// TestPooledPointOneShard: a point of a Jobs > 1 sweep with Workers unset
// steps on one shard — the pool already runs a point per CPU — while the
// same 1,024-node point in a Jobs = 1 sweep picks its count from the
// system size. The most shards any delivery saw is what counts: on a busy
// host the picked count may fall back to one later in the run.
func TestPooledPointOneShard(t *testing.T) {
	for _, tc := range []struct{ jobs, want int }{
		{2, 1},
		{1, min(runtime.GOMAXPROCS(0), runtime.NumCPU(), 2)},
	} {
		v := heteroPHYVariants(baseConfig(Options{Tiny: true, Jobs: tc.jobs}), 8, 8, 4, 4)[2]
		v.Cfg.SimCycles, v.Cfg.WarmupCycles = 600, 100
		v.Pattern, v.Rate = traffic.Uniform{}, 0.05
		got := 0
		v.Hook = func(in *Instance) error {
			sink := in.Net.Sink
			in.Net.Sink = func(p *network.Packet) {
				got = max(got, in.Net.Workers())
				sink(p)
			}
			return nil
		}
		if _, err := v.run(); err != nil {
			t.Fatal(err)
		}
		if got != tc.want {
			t.Errorf("Jobs=%d: the 1,024-node point stepped on %d shards, want %d", tc.jobs, got, tc.want)
		}
	}
}
