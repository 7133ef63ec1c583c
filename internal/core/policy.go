// Package core implements the paper's primary contribution: the
// heterogeneous die-to-die interface. It provides the hetero-PHY adapter
// microarchitecture of Sec. 4.2 (TX multi-width FIFO with
// fetch/decode/dispatch/issue, per-PHY pipelines, RX reorder buffer with
// parallel-PHY bypass) and the scheduling policies of Sec. 5.3 (rule-based
// performance-first / energy-efficient / balanced, and application-aware).
//
// Hetero-channel systems need no adapter — their two interfaces are
// independent router channels; their scheduling lives in the routing
// algorithm (internal/routing, Algorithm 1 + Eq. 5).
package core

import (
	"fmt"

	"heteroif/internal/network"
)

// PHY identifies one of the two physical layers bonded behind a hetero-PHY
// adapter.
type PHY uint8

const (
	// PHYParallel is the AIB-like parallel interface: low latency, low
	// power.
	PHYParallel PHY = iota
	// PHYSerial is the SerDes-like serial interface: high bandwidth, high
	// latency.
	PHYSerial
)

// String returns the PHY name.
func (p PHY) String() string {
	if p == PHYParallel {
		return "parallel"
	}
	return "serial"
}

// State is the adapter state visible to a dispatch policy when it decides
// where the flit at the head of the TX queue should go.
type State struct {
	Now int64
	// QueueLen and QueueCap describe the TX multi-width FIFO.
	QueueLen, QueueCap int
	// ParallelBudget and SerialBudget are the remaining per-cycle issue
	// slots of each PHY.
	ParallelBudget, SerialBudget int
	// Waited is how many cycles the flit has sat in the TX queue.
	Waited int64

	// Serial-PHY link-layer telemetry, populated only when the adapter's
	// serial PHY runs the retry protocol (all zero otherwise). Failure-
	// aware policies (FailoverPolicy) judge PHY health from it.
	//
	// SerialSent counts wire transmissions including retransmissions;
	// SerialRetries counts retransmissions alone. SerialPending is how
	// many flits are accepted but not yet delivered across the serial
	// wire; SerialOldestAge is how long the oldest of them has waited.
	SerialSent      uint64
	SerialRetries   uint64
	SerialPending   int
	SerialOldestAge int64
}

// Policy decides, flit by flit, which PHY a queued flit is issued to
// (Sec. 5.3). Returning ok=false leaves the flit queued this cycle.
//
// On a sharded network (network.Config.Workers: by default, on a
// multi-CPU host, every system of 1,024 nodes or more and any smaller one
// busy enough to pay for a second shard) the adapters of different shards
// call Dispatch at the same time, each from its shard's goroutine. A policy
// that keeps state must therefore keep it per adapter (implement
// PolicyCloner; one adapter's calls never overlap) or synchronise it.
// st is the adapter's own State, refilled before each call: read-only for
// the policy, which must not keep the pointer.
type Policy interface {
	Name() string
	Dispatch(st *State, f network.Flit) (phy PHY, ok bool)
}

// PerformanceFirst dispatches as long as any PHY has a free issue slot,
// preferring the low-latency parallel PHY (Sec. 5.3.1: γ=0, every interface
// works at full capacity).
type PerformanceFirst struct{}

// Name implements Policy.
func (PerformanceFirst) Name() string { return "performance-first" }

// Dispatch implements Policy.
func (PerformanceFirst) Dispatch(st *State, _ network.Flit) (PHY, bool) {
	switch {
	case st.ParallelBudget > 0:
		return PHYParallel, true
	case st.SerialBudget > 0:
		return PHYSerial, true
	default:
		return PHYParallel, false
	}
}

// EnergyEfficient always dispatches to the low-power parallel PHY; the
// serial PHY of a hetero-PHY interface stays dark (Sec. 5.3.1 — serial is
// used only where a link has no parallel PHY at all, e.g. serial-only
// wraparounds).
type EnergyEfficient struct{}

// Name implements Policy.
func (EnergyEfficient) Name() string { return "energy-efficient" }

// Dispatch implements Policy.
func (EnergyEfficient) Dispatch(st *State, _ network.Flit) (PHY, bool) {
	return PHYParallel, st.ParallelBudget > 0
}

// Balanced uses only the parallel PHY under light load and enables the
// serial PHY when the TX queue reaches a threshold (Sec. 5.3.1; the
// synthesized TX adapter of Sec. 7.3 uses threshold = half the FIFO).
//
// The rule is applied flit by flit: the adapter calls Dispatch with the
// queue length as it stands before each issue, so a flit goes to the serial
// PHY only while the queue still holds at least Threshold flits. The
// synthesized control instead decides once per cycle from the start-of-cycle
// occupancy. At the 1 + 2 issue widths of the synthesized TX with a 16-deep
// queue the two differ at occupancy 8 (here 1 parallel + 0 serial, there
// 1 + 2) and 9 (here 1 + 1, there 1 + 2).
type Balanced struct {
	// Threshold is the queue occupancy at which the serial PHY turns on.
	// Zero means half the queue capacity.
	Threshold int
}

// Name implements Policy.
func (Balanced) Name() string { return "balanced" }

// Dispatch implements Policy.
func (b Balanced) Dispatch(st *State, f network.Flit) (PHY, bool) {
	thr := b.Threshold
	if thr <= 0 {
		thr = st.QueueCap / 2
	}
	if st.QueueLen >= thr {
		return PerformanceFirst{}.Dispatch(st, f)
	}
	return PHYParallel, st.ParallelBudget > 0
}

// ApplicationAware routes flits by packet information (Sec. 5.3.2):
// latency-sensitive packets take the parallel PHY (and may bypass the
// reorder buffer), throughput-class packets prefer the serial PHY, and
// flits that have waited longer than Timeout are dispatched to any free PHY
// ("time-out packets can be dispatched early"). Everything else falls back
// to the base rule-based policy.
type ApplicationAware struct {
	// Base is the fallback rule-based policy; nil means Balanced{}.
	Base Policy
	// Timeout in cycles after which a queued flit is dispatched to any
	// free PHY. Zero disables the timeout rule.
	Timeout int64
}

// Name implements Policy.
func (a ApplicationAware) Name() string { return "application-aware" }

// Dispatch implements Policy.
func (a ApplicationAware) Dispatch(st *State, f network.Flit) (PHY, bool) {
	if a.Timeout > 0 && st.Waited >= a.Timeout {
		return PerformanceFirst{}.Dispatch(st, f)
	}
	switch f.Class {
	case network.ClassLatencySensitive:
		return PHYParallel, st.ParallelBudget > 0
	case network.ClassThroughput:
		// Bulk data moves to the high-bandwidth serial PHY as soon as the
		// interface sees any queueing, keeping the parallel PHY clear for
		// latency-critical traffic; at true zero load even bulk takes the
		// faster parallel path.
		if st.QueueLen > 1 && st.SerialBudget > 0 {
			return PHYSerial, true
		}
		if st.ParallelBudget > 0 {
			return PHYParallel, true
		}
		return PHYSerial, st.SerialBudget > 0
	}
	base := a.Base
	if base == nil {
		base = Balanced{}
	}
	return base.Dispatch(st, f)
}

// PolicyByName returns the named policy with default parameters. Known
// names: performance-first, energy-efficient, balanced, application-aware,
// failover (a FailoverPolicy over Balanced).
func PolicyByName(name string) (Policy, error) {
	switch name {
	case "performance-first":
		return PerformanceFirst{}, nil
	case "energy-efficient":
		return EnergyEfficient{}, nil
	case "balanced":
		return Balanced{}, nil
	case "application-aware":
		return ApplicationAware{}, nil
	case "failover":
		return NewFailoverPolicy(nil), nil
	default:
		return nil, fmt.Errorf("core: unknown scheduling policy %q", name)
	}
}
