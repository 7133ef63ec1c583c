package experiments

import (
	"runtime"
	"runtime/debug"
	"testing"
	"time"

	"heteroif/internal/traffic"
)

// TestPointReleasesWorkers: a point built with Workers > 1 stops its shard
// goroutines when it returns. Collection is switched off for the duration,
// so the network's finalizer backstop cannot be what stops them. Workers: 4
// means three real worker goroutines on any host, so there is always
// something to release.
func TestPointReleasesWorkers(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	cfg := baseConfig(Options{Tiny: true, Workers: 4})
	v := heteroPHYVariants(cfg, 2, 2, 4, 4)[2]

	before := runtime.NumGoroutine()
	r, err := runPoint(v, traffic.Uniform{}, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	if r.Packets == 0 {
		t.Fatal("point measured no packets")
	}
	// release waits for every worker to leave its loop; the goroutines
	// themselves finish a few instructions later.
	for deadline := time.Now().Add(10 * time.Second); runtime.NumGoroutine() > before; runtime.Gosched() {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines outlive the point", runtime.NumGoroutine()-before)
		}
	}
}
