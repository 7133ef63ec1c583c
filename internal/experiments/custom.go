package experiments

import (
	"encoding/json"
	"fmt"
	"io"
	"os"

	"heteroif/internal/core"
	"heteroif/internal/network"
	"heteroif/internal/topology"
	"heteroif/internal/traffic"
)

// CustomRun is the JSON schema for user-defined simulations
// (hetsim -run spec.json): a system, a workload and the parameters to
// override. Zero values fall back to the Table 2 defaults.
type CustomRun struct {
	// System is one of: uniform-parallel-mesh, uniform-serial-torus,
	// hetero-phy-torus, uniform-serial-hypercube, hetero-channel.
	System    string `json:"system"`
	ChipletsX int    `json:"chiplets_x"`
	ChipletsY int    `json:"chiplets_y"`
	NodesX    int    `json:"nodes_x"`
	NodesY    int    `json:"nodes_y"`

	// Pattern is a synthetic pattern name (uniform, uniform-hotspot,
	// bit-shuffle, bit-complement, bit-transpose, bit-reverse) or
	// "local-uniform" with BlockChiplets set.
	Pattern       string  `json:"pattern"`
	Rate          float64 `json:"rate"`
	BlockChiplets int     `json:"block_chiplets,omitempty"`

	// Policy names the hetero-PHY scheduling policy (balanced,
	// performance-first, energy-efficient, application-aware).
	Policy string `json:"policy,omitempty"`
	// Eq5Bias overrides the hetero-channel subnetwork-selection weight.
	Eq5Bias float64 `json:"eq5_bias,omitempty"`

	// Halved halves the interface bandwidths (pin-constrained).
	Halved bool `json:"halved,omitempty"`

	Cycles int64 `json:"cycles,omitempty"`
	Warmup int64 `json:"warmup,omitempty"`
	Seed   int64 `json:"seed,omitempty"`

	// Workers cuts the simulation into this many deterministically stepped
	// shards, one goroutine each (1 = one shard; 0 = picked from the
	// system size and the load, see network.Config.Workers). The hetsim
	// -workers flag, when set explicitly, overrides this field.
	Workers int `json:"workers,omitempty"`

	// PacketLength overrides the synthetic packet length in flits.
	PacketLength int `json:"packet_length,omitempty"`
}

// systemByName maps the JSON system names.
func systemByName(name string) (topology.System, error) {
	for _, s := range []topology.System{
		topology.UniformParallelMesh,
		topology.UniformSerialTorus,
		topology.HeteroPHYTorus,
		topology.UniformSerialHypercube,
		topology.HeteroChannel,
	} {
		if s.String() == name {
			return s, nil
		}
	}
	return 0, fmt.Errorf("experiments: unknown system %q", name)
}

// LoadCustomRun parses a JSON spec.
func LoadCustomRun(r io.Reader) (*CustomRun, error) {
	var c CustomRun
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&c); err != nil {
		return nil, fmt.Errorf("experiments: parsing custom run: %w", err)
	}
	return &c, nil
}

// LoadCustomRunFile parses a JSON spec from a file.
func LoadCustomRunFile(path string) (*CustomRun, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return LoadCustomRun(f)
}

// Execute builds and runs the custom simulation, writing a report to w.
func (c *CustomRun) Execute(w io.Writer) error {
	switch {
	case c.Cycles < 0:
		return fmt.Errorf("experiments: cycles must be non-negative, got %d", c.Cycles)
	case c.Warmup < 0:
		return fmt.Errorf("experiments: warmup must be non-negative, got %d", c.Warmup)
	case c.PacketLength < 0:
		return fmt.Errorf("experiments: packet_length must be non-negative, got %d", c.PacketLength)
	}
	cfg := network.DefaultConfig()
	if c.Cycles > 0 {
		cfg.SimCycles = c.Cycles
	}
	if c.Warmup > 0 {
		cfg.WarmupCycles = c.Warmup
	}
	if c.Seed != 0 {
		cfg.Seed = c.Seed
	}
	if c.PacketLength > 0 {
		cfg.PacketLength = c.PacketLength
	}
	if c.Halved {
		cfg = cfg.Halved()
	}
	cfg.Workers = c.Workers // a negative count is rejected by cfg.Validate in Build
	sys, err := systemByName(c.System)
	if err != nil {
		return err
	}
	spec := topology.Spec{
		System:    sys,
		ChipletsX: c.ChipletsX, ChipletsY: c.ChipletsY,
		NodesX: c.NodesX, NodesY: c.NodesY,
	}
	if c.Policy != "" {
		pol, err := core.PolicyByName(c.Policy)
		if err != nil {
			return err
		}
		spec.Policy = pol
	}
	if err := spec.Validate(); err != nil {
		return err
	}
	switch {
	case c.Rate <= 0:
		return fmt.Errorf("experiments: rate must be positive")
	case c.Eq5Bias < 0:
		return fmt.Errorf("experiments: eq5_bias must be non-negative, got %g", c.Eq5Bias)
	case c.Eq5Bias > 0 && sys != topology.HeteroChannel:
		return fmt.Errorf("experiments: eq5_bias only applies to hetero-channel systems")
	}
	var pat traffic.Pattern
	if c.Pattern == "local-uniform" {
		if c.BlockChiplets <= 0 {
			return fmt.Errorf("experiments: local-uniform needs block_chiplets > 0")
		}
		pat = &traffic.LocalUniform{
			ChipletsX: c.ChipletsX, NodesX: c.NodesX, NodesY: c.NodesY,
			GX: c.ChipletsX * c.NodesX, BlockChiplets: c.BlockChiplets,
		}
	} else {
		n := c.ChipletsX * c.NodesX * c.ChipletsY * c.NodesY
		if pat, err = traffic.ByName(c.Pattern, n, cfg.Seed); err != nil {
			return err
		}
	}

	var in *Instance
	out, err := simPoint{
		Name: c.System, Cfg: cfg, Spec: spec, Bias: c.Eq5Bias,
		Hook: func(i *Instance) error {
			in = i
			fmt.Fprint(w, in.Topo.Describe())
			return nil
		},
		Pattern: pat, Rate: c.Rate,
	}.run()
	if err != nil {
		return err
	}
	r := out.Result
	fmt.Fprintln(w, r)
	oc, pa, se, he := in.Stats.MeanHops()
	fmt.Fprintf(w, "hops/pkt: on-chip %.2f, parallel %.2f, serial %.2f, hetero %.2f\n", oc, pa, se, he)
	fmt.Fprintf(w, "energy/pkt: %.1f pJ (on-chip %.1f + interface %.1f)\n",
		r.EnergyPJ, r.EnergyOnChipPJ, r.EnergyIfacePJ)
	return nil
}
