package collective

import (
	"fmt"

	"heteroif/internal/network"
)

// Layer is one layer of the DNN training traffic model: a compute phase
// (forward+backward pass, modeled as a single delay) followed by a
// gradient all-reduce over the participants.
type Layer struct {
	Name string
	// Compute is the layer's local compute delay in cycles, applied before
	// the layer's gradient exchange can start.
	Compute int64
	// GradFlits is the per-participant gradient payload all-reduced after
	// the compute phase.
	GradFlits int
}

// DNNTraining builds the layer-by-layer data-parallel training model in
// the CHIPSIM spirit: for each layer, every participant computes for
// Layer.Compute cycles, then joins a ring all-reduce of the layer's
// gradients; a full barrier separates layers (layer l+1's compute starts
// only after every participant has received every chunk of layer l's
// all-reduce). The compute phases are provably idle network stretches —
// exactly the shape that exercises quiescence fast-forward.
// reduceCompute is the per-chunk reduction delay inside each all-reduce.
func DNNTraining(parts []network.NodeID, layers []Layer, reduceCompute int64) *Program {
	checkParts("dnn-training", parts)
	if len(layers) == 0 {
		panic("collective: dnn-training needs at least one layer")
	}
	p := len(parts)
	prog := &Program{Name: "dnn-training", Participants: p, Class: network.ClassThroughput}
	// Per layer: 2(P-1) steps of P sends; the first step's sends wait for
	// the previous layer's last P, every other send for one message.
	layerMsgs := 2 * (p - 1) * p
	prog.reserve(len(layers)*layerMsgs, len(layers)*(layerMsgs-p)+(len(layers)-1)*p*p)
	// barrier holds the final-step message indices of the previous layer's
	// all-reduce; empty for the first layer.
	barrier := make([]int32, 0, p)
	for li, l := range layers {
		if l.Compute < 0 {
			panic(fmt.Sprintf("collective: layer %d (%s) has negative compute", li, l.Name))
		}
		// The layer's root sends gate on the previous layer's barrier and
		// absorb the layer compute.
		prog.appendRing(parts, l.GradFlits, reduceCompute, true, true, barrier, l.Compute)
		barrier = barrier[:0]
		for m := len(prog.Msgs) - p; m < len(prog.Msgs); m++ {
			barrier = append(barrier, int32(m))
		}
	}
	return prog
}
