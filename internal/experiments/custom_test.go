package experiments

import (
	"bytes"
	"strings"
	"testing"
)

func TestCustomRunExecute(t *testing.T) {
	spec := `{
		"system": "hetero-phy-torus",
		"chiplets_x": 2, "chiplets_y": 2,
		"nodes_x": 3, "nodes_y": 3,
		"pattern": "uniform",
		"rate": 0.1,
		"cycles": 4000, "warmup": 1000,
		"policy": "energy-efficient"
	}`
	c, err := LoadCustomRun(strings.NewReader(spec))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := c.Execute(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "hetero-phy-torus") || !strings.Contains(out, "energy/pkt") {
		t.Fatalf("report incomplete:\n%s", out)
	}
}

func TestCustomRunLocalUniform(t *testing.T) {
	c := &CustomRun{
		System: "uniform-parallel-mesh", ChipletsX: 2, ChipletsY: 2,
		NodesX: 3, NodesY: 3,
		Pattern: "local-uniform", BlockChiplets: 1,
		Rate: 0.05, Cycles: 3000, Warmup: 500,
	}
	var buf bytes.Buffer
	if err := c.Execute(&buf); err != nil {
		t.Fatal(err)
	}
	// Intra-block traffic on 1×1-chiplet blocks never crosses a boundary.
	if !strings.Contains(buf.String(), "parallel 0.00") {
		t.Fatalf("local 1x1 traffic crossed chiplet boundaries:\n%s", buf.String())
	}
}

func TestCustomRunValidation(t *testing.T) {
	cases := []CustomRun{
		{System: "warp-drive", ChipletsX: 2, ChipletsY: 2, NodesX: 2, NodesY: 2, Pattern: "uniform", Rate: 0.1},
		{System: "uniform-parallel-mesh", ChipletsX: 2, ChipletsY: 2, NodesX: 2, NodesY: 2, Pattern: "rainbows", Rate: 0.1},
		{System: "uniform-parallel-mesh", ChipletsX: 2, ChipletsY: 2, NodesX: 2, NodesY: 2, Pattern: "uniform", Rate: 0},
		{System: "uniform-parallel-mesh", ChipletsX: 2, ChipletsY: 2, NodesX: 2, NodesY: 2, Pattern: "uniform", Rate: 0.1, Eq5Bias: 2},
		{System: "uniform-parallel-mesh", ChipletsX: 2, ChipletsY: 2, NodesX: 2, NodesY: 2, Pattern: "uniform", Rate: 0.1, Policy: "bogus"},
		{System: "uniform-parallel-mesh", ChipletsX: 2, ChipletsY: 2, NodesX: 2, NodesY: 2, Pattern: "local-uniform", Rate: 0.1},
		{System: "uniform-parallel-mesh", ChipletsX: 2, ChipletsY: 2, NodesX: 2, NodesY: 2, Pattern: "uniform", Rate: 0.1, Workers: -1},
	}
	for i, c := range cases {
		c.Cycles, c.Warmup = 2000, 200
		var buf bytes.Buffer
		if err := c.Execute(&buf); err == nil {
			t.Errorf("case %d: invalid custom run accepted", i)
		}
	}
	// A negative number is refused by name, not replaced by a default.
	for field, c := range map[string]CustomRun{
		"cycles":        {Cycles: -1, Warmup: 200},
		"warmup":        {Cycles: 2000, Warmup: -1},
		"packet_length": {Cycles: 2000, Warmup: 200, PacketLength: -1},
		"eq5_bias":      {Cycles: 2000, Warmup: 200, Eq5Bias: -1},
	} {
		c.System, c.ChipletsX, c.ChipletsY, c.NodesX, c.NodesY = "hetero-channel", 2, 2, 2, 2
		c.Pattern, c.Rate = "uniform", 0.1
		var buf bytes.Buffer
		if err := c.Execute(&buf); err == nil || !strings.Contains(err.Error(), field+" must be non-negative") {
			t.Errorf("%s = -1: got error %v", field, err)
		}
	}
}

func TestLoadCustomRunRejectsUnknownFields(t *testing.T) {
	if _, err := LoadCustomRun(strings.NewReader(`{"systemm": "typo"}`)); err == nil {
		t.Fatal("unknown JSON field accepted")
	}
	if _, err := LoadCustomRun(strings.NewReader(`not json`)); err == nil {
		t.Fatal("garbage accepted")
	}
}

func TestLoadCustomRunFileMissing(t *testing.T) {
	if _, err := LoadCustomRunFile("/nonexistent/spec.json"); err == nil {
		t.Fatal("missing file accepted")
	}
}
