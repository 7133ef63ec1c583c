// Package rtl is a structural area/power/timing estimator reproducing the
// post-synthesis analysis of Table 4 (Sec. 7.3). It prices the three
// circuits the paper synthesizes at TSMC-12nm:
//
//  1. the hetero-PHY adapter RX — a 64-bit × 16-deep FIFO plus sequence-
//     number counting logic (the reorder buffer), AdapterRXModule;
//  2. the hetero-PHY adapter TX — a same-size multi-width FIFO with three
//     concurrent read/write ports and the balance-scheduling control,
//     AdapterTXModule;
//  3. the canonical VC router, regular (5 ports, RegularRouterModule) and
//     heterogeneous (+2 concurrent serial ports with their routing logic,
//     HeteroRouterModule).
//
// The circuits' behaviour is modelled once, by the simulator: the adapter
// in internal/core, the router in internal/network. This package only
// describes their structure.
//
// Substitution note (DESIGN.md §4): we cannot run Synopsys on TSMC-12nm;
// Estimate computes area, power and critical path from structural
// parameters (storage bits, port counts, crossbar size, control gates)
// with coefficients calibrated against the paper's own four synthesis
// results, so the Table 4 relations (tiny fast adapters; hetero router
// ≈ +45% area / +33% power at nearly unchanged frequency) are reproduced.
package rtl

import "fmt"

// Tech holds the 12nm-class technology coefficients of the estimator.
// They are calibrated so that the four modules of Table 4 land on the
// paper's post-synthesis numbers; the point of the model is that *one*
// coefficient set reproduces all four, so derived designs (wider queues,
// higher-radix routers) scale consistently.
type Tech struct {
	// FlopAreaUM2PerBit is flop storage incl. local clocking and wiring.
	FlopAreaUM2PerBit float64
	// PortAreaFrac is the extra storage-array area per additional
	// concurrent read/write port (multi-port muxing and wordline fanout).
	PortAreaFrac float64
	// GateAreaUM2 is the area of one NAND2-equivalent of control logic.
	GateAreaUM2 float64
	// XbarAreaUM2PerBit is crossbar area per (input×output×bit).
	XbarAreaUM2PerBit float64
	// LeakageMWPerUM2 is static power per area.
	LeakageMWPerUM2 float64
	// DynMWPerBitGHz is dynamic power per actively switched bit per GHz.
	DynMWPerBitGHz float64
	// BaseDelayNS is the flop clk→q plus setup floor of any stage.
	BaseDelayNS float64
	// ClockOverheadNS is skew+jitter+margin added when converting the
	// critical path to an achievable clock (the Table 4 rows imply
	// ≈0.18 ns: 0.36 ns paths clock at 1.85 GHz, 0.65 ns at 1.20 GHz).
	ClockOverheadNS float64
	// MuxDelayNSPerLog2 is added critical path per doubling of mux fan-in.
	MuxDelayNSPerLog2 float64
	// ArbDelayNSPerPort is added allocator delay per router port.
	ArbDelayNSPerPort float64
}

// TSMC12 returns the calibrated 12nm-class coefficient set.
func TSMC12() Tech {
	return Tech{
		FlopAreaUM2PerBit: 0.95,
		PortAreaFrac:      0.22,
		GateAreaUM2:       0.18,
		XbarAreaUM2PerBit: 0.055,
		LeakageMWPerUM2:   0.00004,
		DynMWPerBitGHz:    0.0057,
		BaseDelayNS:       0.26,
		ClockOverheadNS:   0.18,
		MuxDelayNSPerLog2: 0.025,
		ArbDelayNSPerPort: 0.066,
	}
}

// Module is a structural netlist summary: what the estimator needs to
// price a design.
type Module struct {
	Name string
	// StorageBits of flop-based buffering.
	StorageBits int
	// RWPorts on the storage array (1 = simple FIFO).
	RWPorts int
	// Crossbar dimensions (0 for none).
	XbarIn, XbarOut, XbarWidth int
	// ControlGates of NAND2-equivalent control logic.
	ControlGates int
	// ActiveBitsPerCycle is the mean number of bits switched per cycle at
	// the module's nominal load (for dynamic power).
	ActiveBitsPerCycle float64
	// MuxFanIn is the widest data mux on the critical path.
	MuxFanIn int
	// ArbPorts is the allocator size on the critical path (0 for none).
	ArbPorts int
}

// Report is one synthesis estimate (Table 4 row).
type Report struct {
	Name           string
	AreaUM2        float64
	PowerMW        float64
	FJPerBit       float64
	FreqGHz        float64
	CriticalPathNS float64
}

// Estimate prices a module in the given technology.
func (m Module) Estimate(t Tech) Report {
	storage := float64(m.StorageBits) * t.FlopAreaUM2PerBit
	if m.RWPorts > 1 {
		storage *= 1 + t.PortAreaFrac*float64(m.RWPorts-1)
	}
	xbar := float64(m.XbarIn*m.XbarOut*m.XbarWidth) * t.XbarAreaUM2PerBit
	logic := float64(m.ControlGates) * t.GateAreaUM2
	area := storage + xbar + logic

	cp := t.BaseDelayNS
	if m.MuxFanIn > 1 {
		cp += t.MuxDelayNSPerLog2 * log2ceil(m.MuxFanIn)
	}
	if m.ArbPorts > 0 {
		cp += t.ArbDelayNSPerPort * float64(m.ArbPorts)
	}
	freq := 1.0 / (cp + t.ClockOverheadNS)

	power := area*t.LeakageMWPerUM2 + m.ActiveBitsPerCycle*t.DynMWPerBitGHz*freq
	var fjPerBit float64
	if m.ActiveBitsPerCycle > 0 {
		// mW / (bits/cycle × GHz) = pJ/bit; report fJ/bit.
		fjPerBit = power / (m.ActiveBitsPerCycle * freq) * 1000
	}
	return Report{
		Name:           m.Name,
		AreaUM2:        area,
		PowerMW:        power,
		FJPerBit:       fjPerBit,
		FreqGHz:        freq,
		CriticalPathNS: cp,
	}
}

// String renders a Table 4 row.
func (r Report) String() string {
	return fmt.Sprintf("%-22s area=%7.0f um2  power=%5.2f mW (%4.1f fJ/bit)  freq=%4.2f GHz  cp=%.2f ns",
		r.Name, r.AreaUM2, r.PowerMW, r.FJPerBit, r.FreqGHz, r.CriticalPathNS)
}

// The four synthesized designs of Sec. 7.3 / Table 4.

// AdapterRXModule is the RX reorder unit: a 64-bit × 16-deep FIFO (plus
// 16-bit SNs) and the SN counting/compare logic.
func AdapterRXModule() Module {
	return Module{
		Name:        "adapter-rx",
		StorageBits: (64 + 16) * 16,
		RWPorts:     1,
		// SN comparators over 16 entries plus release control.
		ControlGates:       950,
		ActiveBitsPerCycle: 102,
		MuxFanIn:           16,
	}
}

// AdapterTXModule is the TX multi-width FIFO: same storage, 3 concurrent
// read/write ports, balance-scheduling control.
func AdapterTXModule() Module {
	return Module{
		Name:               "adapter-tx",
		StorageBits:        (64 + 16) * 16,
		RWPorts:            3,
		ControlGates:       550,
		ActiveBitsPerCycle: 66, // lower toggling: issues ≤3 flits/cycle
		MuxFanIn:           16,
	}
}

// RegularRouterModule is the canonical 5-port, 2-VC, 64-bit router with
// 10-flit RTL input buffers per VC.
func RegularRouterModule() Module {
	return Module{
		Name:        "regular-router",
		StorageBits: 5 * 2 * 10 * 64, // 10-flit RTL input buffers per VC
		RWPorts:     1,
		XbarIn:      5, XbarOut: 5, XbarWidth: 64,
		ControlGates:       4660, // RC + VC/SW allocators
		ActiveBitsPerCycle: 277,
		MuxFanIn:           5,
		ArbPorts:           5,
	}
}

// HeteroRouterModule adds two concurrent serial-IF ports with their own
// routing computation and buffers (Sec. 7.3: "we let the parallel-IF use
// the original port and added two extra ports").
func HeteroRouterModule() Module {
	return Module{
		Name: "heterogeneous-router",
		// 5 original ports at 10-flit VCs plus 2 serial ports with deeper
		// (12-flit) interface buffers and their routing logic.
		StorageBits: (5*2*10 + 2*2*12) * 64,
		RWPorts:     1,
		XbarIn:      7, XbarOut: 7, XbarWidth: 64,
		ControlGates:       5470,
		ActiveBitsPerCycle: 365,
		MuxFanIn:           7,
		ArbPorts:           5, // allocator stages pipelined per port group
	}
}

// Table4 returns the four Table 4 estimates.
func Table4() []Report {
	t := TSMC12()
	return []Report{
		AdapterRXModule().Estimate(t),
		AdapterTXModule().Estimate(t),
		RegularRouterModule().Estimate(t),
		HeteroRouterModule().Estimate(t),
	}
}

func log2ceil(n int) float64 {
	v, b := 1, 0.0
	for v < n {
		v <<= 1
		b++
	}
	return b
}
