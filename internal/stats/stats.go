// Package stats collects per-packet latency, throughput, hop and energy
// statistics from simulation runs. A Collector hooks into
// network.Network.Sink and measures only packets created after the warm-up
// window (Table 2: 10000 warm-up cycles).
package stats

import "math"

// Collector accumulates measurement-window packet statistics. Its memory
// follows the latency range, not the packet count: latencies go into exact
// histograms (Hist), everything else into running sums.
type Collector struct {
	// Warmup: packets created before this cycle are ignored.
	Warmup int64

	lat          Hist // creation→delivery latency; its count is the packet count
	sumLat       float64
	sumNet       float64
	sumSqLat     float64
	flits        int64
	sumEnergy    float64
	sumOnChipE   float64
	sumIfaceE    float64
	hopsOnChip   int64
	hopsParallel int64
	hopsSerial   int64
	hopsHetero   int64

	byClass [8]classAgg
}

// classAgg accumulates per-traffic-class latency statistics.
type classAgg struct {
	sumLat float64
	lat    Hist
}

// Measured is the packet view Record needs; *network.Packet satisfies it
// structurally via the Record call in the runner (kept as a tiny struct to
// avoid an import cycle with experiment helpers).
type Measured struct {
	Class          uint8
	CreatedAt      int64
	InjectedAt     int64
	ArrivedAt      int64
	Length         int
	EnergyPJ       float64
	EnergyOnChipPJ float64
	EnergyIfacePJ  float64
	HopsOnChip     int32
	HopsParallel   int32
	HopsSerial     int32
	HopsHetero     int32
}

// Record adds one delivered packet. Packets created during warm-up are
// skipped.
func (c *Collector) Record(m Measured) {
	if m.CreatedAt < c.Warmup {
		return
	}
	lat := m.ArrivedAt - m.CreatedAt
	net := m.ArrivedAt - m.InjectedAt
	c.lat.Add(lat)
	c.sumLat += float64(lat)
	c.sumNet += float64(net)
	c.sumSqLat += float64(lat) * float64(lat)
	c.flits += int64(m.Length)
	c.sumEnergy += m.EnergyPJ
	c.sumOnChipE += m.EnergyOnChipPJ
	c.sumIfaceE += m.EnergyIfacePJ
	if int(m.Class) < len(c.byClass) {
		a := &c.byClass[m.Class]
		a.sumLat += float64(lat)
		a.lat.Add(lat)
	}
	c.hopsOnChip += int64(m.HopsOnChip)
	c.hopsParallel += int64(m.HopsParallel)
	c.hopsSerial += int64(m.HopsSerial)
	c.hopsHetero += int64(m.HopsHetero)
}

// Count returns the number of measured packets.
func (c *Collector) Count() int64 { return c.lat.n }

// FlitsDelivered returns the number of measured flits delivered.
func (c *Collector) FlitsDelivered() int64 { return c.flits }

// MeanLatency returns the average creation→delivery latency in cycles.
func (c *Collector) MeanLatency() float64 {
	if c.lat.n == 0 {
		return math.NaN()
	}
	return c.sumLat / float64(c.lat.n)
}

// MeanNetLatency returns the average injection→delivery latency in cycles.
func (c *Collector) MeanNetLatency() float64 {
	if c.lat.n == 0 {
		return math.NaN()
	}
	return c.sumNet / float64(c.lat.n)
}

// LatencyVariance returns the variance of the total latency.
func (c *Collector) LatencyVariance() float64 {
	if c.lat.n == 0 {
		return math.NaN()
	}
	mean := c.sumLat / float64(c.lat.n)
	return c.sumSqLat/float64(c.lat.n) - mean*mean
}

// LatencyStdDev returns the standard deviation of the total latency.
func (c *Collector) LatencyStdDev() float64 {
	v := c.LatencyVariance()
	if v < 0 {
		v = 0
	}
	return math.Sqrt(v)
}

// Percentile returns the q-th (0..1) total-latency percentile in cycles.
func (c *Collector) Percentile(q float64) int64 { return c.lat.Percentile(q) }

// Throughput returns the accepted traffic in flits/cycle/node over a
// measurement window of the given length and node count.
func (c *Collector) Throughput(cycles int64, nodes int) float64 {
	if cycles <= 0 || nodes == 0 {
		return 0
	}
	return float64(c.flits) / float64(cycles) / float64(nodes)
}

// MeanEnergyPJ returns the average energy per measured packet in pJ.
func (c *Collector) MeanEnergyPJ() float64 {
	if c.lat.n == 0 {
		return math.NaN()
	}
	return c.sumEnergy / float64(c.lat.n)
}

// MeanEnergyBreakdownPJ returns the average per-packet energy split into
// on-chip (NoC wires + routers) and die-to-die interface shares.
func (c *Collector) MeanEnergyBreakdownPJ() (onChip, iface float64) {
	if c.lat.n == 0 {
		return math.NaN(), math.NaN()
	}
	return c.sumOnChipE / float64(c.lat.n), c.sumIfaceE / float64(c.lat.n)
}

// MeanHops returns average hops per packet split by channel class:
// on-chip, parallel, serial, hetero-PHY.
func (c *Collector) MeanHops() (onChip, parallel, serial, hetero float64) {
	if c.lat.n == 0 {
		return
	}
	n := float64(c.lat.n)
	return float64(c.hopsOnChip) / n, float64(c.hopsParallel) / n,
		float64(c.hopsSerial) / n, float64(c.hopsHetero) / n
}

// ClassCount returns the number of measured packets of a traffic class.
func (c *Collector) ClassCount(class uint8) int64 {
	if int(class) >= len(c.byClass) {
		return 0
	}
	return c.byClass[class].lat.n
}

// ClassMeanLatency returns the average latency of one traffic class.
func (c *Collector) ClassMeanLatency(class uint8) float64 {
	if int(class) >= len(c.byClass) || c.byClass[class].lat.n == 0 {
		return math.NaN()
	}
	a := &c.byClass[class]
	return a.sumLat / float64(a.lat.n)
}

// ClassPercentile returns a latency percentile of one traffic class.
func (c *Collector) ClassPercentile(class uint8, q float64) int64 {
	if int(class) >= len(c.byClass) {
		return 0
	}
	return c.byClass[class].lat.Percentile(q)
}

// Reset clears all measurements, keeping the warm-up setting.
func (c *Collector) Reset() {
	*c = Collector{Warmup: c.Warmup}
}

// Running is an online mean/variance estimator (Welford's algorithm): O(1)
// memory, numerically stable, usable one sample at a time. The sweep
// orchestrator feeds it per-job wall-clock durations to estimate ETAs; it
// is equally suited to any streaming aggregate.
type Running struct {
	n    int64
	mean float64
	m2   float64
}

// Add folds one sample into the estimate.
func (r *Running) Add(x float64) {
	r.n++
	d := x - r.mean
	r.mean += d / float64(r.n)
	r.m2 += d * (x - r.mean)
}

// Count returns the number of samples seen.
func (r *Running) Count() int64 { return r.n }

// Mean returns the running mean (0 with no samples).
func (r *Running) Mean() float64 {
	if r.n == 0 {
		return 0
	}
	return r.mean
}

// Variance returns the running population variance (0 with < 2 samples).
func (r *Running) Variance() float64 {
	if r.n < 2 {
		return 0
	}
	return r.m2 / float64(r.n)
}

// StdDev returns the running population standard deviation.
func (r *Running) StdDev() float64 { return math.Sqrt(r.Variance()) }
