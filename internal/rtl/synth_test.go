package rtl

import "testing"

// TestTable4Shape checks the estimator reproduces the paper's relations.
func TestTable4Shape(t *testing.T) {
	reports := Table4()
	if len(reports) != 4 {
		t.Fatalf("Table 4 has %d rows, want 4", len(reports))
	}
	rx, tx, reg, het := reports[0], reports[1], reports[2], reports[3]

	// Adapters are small and fast.
	if rx.AreaUM2 >= reg.AreaUM2 || tx.AreaUM2 >= reg.AreaUM2 {
		t.Error("adapters must be smaller than the router")
	}
	if rx.FreqGHz < 1.7 || tx.FreqGHz < 1.7 {
		t.Errorf("adapters should run near 1.85 GHz, got %.2f / %.2f", rx.FreqGHz, tx.FreqGHz)
	}
	// The TX multi-port queue costs more area than the RX FIFO.
	if tx.AreaUM2 <= rx.AreaUM2 {
		t.Error("3-port TX queue should out-area the single-port RX FIFO")
	}

	// Hetero router: ≈ +45% area, +33% power, frequency barely affected.
	areaRatio := het.AreaUM2 / reg.AreaUM2
	powerRatio := het.PowerMW / reg.PowerMW
	freqRatio := het.FreqGHz / reg.FreqGHz
	if areaRatio < 1.3 || areaRatio > 1.6 {
		t.Errorf("hetero/regular area ratio %.2f, want ≈1.45 (Table 4)", areaRatio)
	}
	if powerRatio < 1.2 || powerRatio > 1.5 {
		t.Errorf("hetero/regular power ratio %.2f, want ≈1.33 (Table 4)", powerRatio)
	}
	if freqRatio < 0.9 || freqRatio > 1.05 {
		t.Errorf("hetero/regular frequency ratio %.2f, want ≈0.97 (Table 4)", freqRatio)
	}
	// Routers are slower than adapters (bigger critical path).
	if reg.FreqGHz >= rx.FreqGHz {
		t.Error("router should clock slower than the adapter FIFO")
	}
}

func TestEstimateScalesWithStructure(t *testing.T) {
	tech := TSMC12()
	small := Module{Name: "s", StorageBits: 512, RWPorts: 1, ControlGates: 100, ActiveBitsPerCycle: 64, MuxFanIn: 4}
	big := small
	big.StorageBits = 4096
	if big.Estimate(tech).AreaUM2 <= small.Estimate(tech).AreaUM2 {
		t.Error("area must grow with storage")
	}
	multi := small
	multi.RWPorts = 4
	if multi.Estimate(tech).AreaUM2 <= small.Estimate(tech).AreaUM2 {
		t.Error("area must grow with ports")
	}
	wide := small
	wide.MuxFanIn = 64
	if wide.Estimate(tech).FreqGHz >= small.Estimate(tech).FreqGHz {
		t.Error("frequency must drop with mux fan-in")
	}
}
