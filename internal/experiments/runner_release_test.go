package experiments

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"runtime/debug"
	"runtime/pprof"
	"strings"
	"testing"
	"time"

	"heteroif/internal/network"
	"heteroif/internal/traffic"
)

// TestPointReleasesWorkers: a point built with Workers > 1 stops its shard
// goroutines when it returns — after a measured run, and when its hook
// fails before the first Step (Finalize, inside Build, starts them).
// Collection is switched off for the duration, so the network's finalizer
// backstop cannot be what stops them. Workers: 4 means three real worker
// goroutines on any host, and the failing hook checks that exactly three
// are running before it fails. Only the point's own workers are counted:
// the point runs under a goroutine label its workers inherit, so a worker
// of an earlier point still on its way out counts for neither side.
func TestPointReleasesWorkers(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	v := heteroPHYVariants(baseConfig(Options{Tiny: true, Workers: 4}), 2, 2, 4, 4)[2]
	v.Pattern, v.Rate = traffic.Uniform{}, 0.1
	failing := v
	boom := errors.New("hook refused")
	started := 0
	failing.Hook = func(*Instance) error {
		started = pointWorkers("hook error")
		return boom
	}

	for _, tc := range []struct {
		name string
		p    simPoint
		want error
	}{{"measured", v, nil}, {"hook error", failing, boom}} {
		t.Run(tc.name, func(t *testing.T) {
			var out outcome
			var err error
			pprof.Do(context.Background(), pprof.Labels("point", tc.name), func(context.Context) {
				out, err = tc.p.run()
			})
			if !errors.Is(err, tc.want) {
				t.Fatalf("run: %v, want %v", err, tc.want)
			}
			if err == nil && out.Packets == 0 {
				t.Fatal("point measured no packets")
			}
			if err != nil && started != 3 {
				t.Fatalf("the failing hook ran beside %d of the point's workers, want 3", started)
			}
			// SetWorkers(0) waits for every worker to leave its loop; the
			// goroutines themselves finish a few instructions later.
			for deadline := time.Now().Add(10 * time.Second); pointWorkers(tc.name) > 0; runtime.Gosched() {
				if time.Now().After(deadline) {
					t.Fatalf("%d of the point's workers outlive it", pointWorkers(tc.name))
				}
			}
		})
	}
}

// pointWorkers counts the goroutines that carry the goroutine label
// point=name, except the one asking: the goroutines a point starts are its
// shard workers, and one not yet scheduled has no stack to tell it by.
func pointWorkers(name string) int {
	var b strings.Builder
	pprof.Lookup("goroutine").WriteTo(&b, 1)
	_, records, _ := strings.Cut(b.String(), "\n") // past the total line
	label := fmt.Sprintf("# labels: {%q:%q}", "point", name)
	n := 0
	for _, rec := range strings.Split(records, "\n\n") {
		if k := 0; strings.Contains(rec, label) && !strings.Contains(rec, "pprof.writeGoroutine") {
			fmt.Sscanf(rec, "%d @", &k)
			n += k
		}
	}
	return n
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
