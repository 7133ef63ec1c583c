package experiments

import (
	"errors"
	"runtime"
	"runtime/debug"
	"testing"
	"time"

	"heteroif/internal/traffic"
)

// TestPointReleasesWorkers: a point built with Workers > 1 stops its shard
// goroutines when it returns — after a measured run, and when its hook
// fails before any traffic. Collection is switched off for the duration,
// so the network's finalizer backstop cannot be what stops them. Workers: 4
// means three real worker goroutines on any host, so there is always
// something to release.
func TestPointReleasesWorkers(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	v := heteroPHYVariants(baseConfig(Options{Tiny: true, Workers: 4}), 2, 2, 4, 4)[2]
	v.Pattern, v.Rate = traffic.Uniform{}, 0.1
	failing := v
	boom := errors.New("hook refused")
	failing.Hook = func(*Instance) error { return boom }

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
