package network_test

import (
	"testing"

	"heteroif/internal/network/netbench"
)

// BenchmarkStep measures the per-cycle cost of the engine at three
// operating points (idle, low-load, saturated) and three mesh sizes
// (16/64/256 nodes), plus the saturated hetero-PHY tori and one
// closed-loop collective. These are the micro-cases for attributing a
// number; whether a change is faster is judged by `go run ./bench` ledgers
// under -compare. The low-load cases step through Network.RunWith, so
// quiescence fast-forward is part of what is measured — exactly as a
// Fig. 11-style latency sweep would experience it.
func BenchmarkStep(b *testing.B) {
	for _, c := range netbench.Cases() {
		b.Run(c.Name, c.Bench)
	}
}
