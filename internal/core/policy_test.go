package core

import (
	"testing"

	"heteroif/internal/network"
)

func TestPerformanceFirstPrefersParallel(t *testing.T) {
	f := flitOf(mkPkt(4, network.ClassBestEffort), 0, 0)
	if phy, ok := (PerformanceFirst{}).Dispatch(&State{ParallelBudget: 1, SerialBudget: 4}, f); !ok || phy != PHYParallel {
		t.Error("should prefer the low-latency parallel PHY when free")
	}
	if phy, ok := (PerformanceFirst{}).Dispatch(&State{ParallelBudget: 0, SerialBudget: 4}, f); !ok || phy != PHYSerial {
		t.Error("should overflow to serial when parallel is busy")
	}
	if _, ok := (PerformanceFirst{}).Dispatch(&State{}, f); ok {
		t.Error("nothing free: must stall")
	}
}

func TestEnergyEfficientStallsWithoutParallel(t *testing.T) {
	f := flitOf(mkPkt(4, network.ClassBestEffort), 0, 0)
	if _, ok := (EnergyEfficient{}).Dispatch(&State{ParallelBudget: 0, SerialBudget: 4}, f); ok {
		t.Error("energy-efficient must never take the serial PHY")
	}
	if phy, ok := (EnergyEfficient{}).Dispatch(&State{ParallelBudget: 2, SerialBudget: 4}, f); !ok || phy != PHYParallel {
		t.Error("parallel free: must dispatch")
	}
}

func TestBalancedThresholdSemantics(t *testing.T) {
	f := flitOf(mkPkt(4, network.ClassBestEffort), 0, 0)
	light := State{QueueLen: 3, QueueCap: 16, ParallelBudget: 0, SerialBudget: 4}
	// Below threshold (default cap/2 = 8): parallel only → stall here.
	if _, ok := (Balanced{}).Dispatch(&light, f); ok {
		t.Error("light load must not use serial")
	}
	heavy := light
	heavy.QueueLen = 8
	if phy, ok := (Balanced{}).Dispatch(&heavy, f); !ok || phy != PHYSerial {
		t.Error("at threshold the serial PHY must engage")
	}
	// Explicit threshold overrides the default.
	custom := Balanced{Threshold: 2}
	if phy, ok := custom.Dispatch(&light, f); !ok || phy != PHYSerial {
		t.Error("custom threshold 2 should engage serial at queue 3")
	}
}

func TestApplicationAwareFallsBackToBase(t *testing.T) {
	f := flitOf(mkPkt(4, network.ClassBestEffort), 0, 0)
	pol := ApplicationAware{Base: PerformanceFirst{}}
	st := State{QueueLen: 1, QueueCap: 16, ParallelBudget: 0, SerialBudget: 4}
	// Base performance-first overflows best-effort traffic to serial even
	// at low queue occupancy.
	if phy, ok := pol.Dispatch(&st, f); !ok || phy != PHYSerial {
		t.Error("base policy not consulted for best-effort traffic")
	}
	// Nil base defaults to Balanced: same state now stalls.
	if _, ok := (ApplicationAware{}).Dispatch(&st, f); ok {
		t.Error("default base (balanced) should stall at light load without parallel budget")
	}
}

func TestPolicyNames(t *testing.T) {
	for _, p := range []Policy{PerformanceFirst{}, EnergyEfficient{}, Balanced{}, ApplicationAware{}} {
		if p.Name() == "" {
			t.Error("empty policy name")
		}
	}
	if (PHYParallel).String() != "parallel" || (PHYSerial).String() != "serial" {
		t.Error("PHY names wrong")
	}
}
