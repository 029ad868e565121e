// Custom model: build your own training graph with the ops.Builder API,
// attach the backward pass, characterize it symbolically, and validate the
// analytical FLOP counts by actually executing the step on the CPU
// reference executor (the repository's TFprof substitute).
package main

import (
	"fmt"
	"log"

	"catamount/internal/core"
	"catamount/internal/exec"
	"catamount/internal/graph"
	"catamount/internal/ops"
	"catamount/internal/symbolic"
	"catamount/internal/tensor"
)

func main() {
	log.SetFlags(0)

	// A small convolutional classifier: conv -> BN -> ReLU -> pool -> FC.
	b := ops.NewBuilder("custom-cnn")
	bs := symbolic.S("b") // symbolic batch: one graph, any batch size

	b.Group("stem")
	x := b.Input("image", tensor.F32, bs, 16, 16, 3)
	w1 := b.Param("conv1_w", 3, 3, 3, 8)
	y := b.ReLU(b.BatchNormLayer("bn1", b.Conv2D(x, w1, 1, 1)))
	y = b.Pool(y, 2, 2, 2, 2, true)

	b.Group("head")
	flat := b.Reshape(y, bs, 8*8*8)
	wFC := b.Param("fc_w", 8*8*8, 10)
	bFC := b.Param("fc_b", 10)
	logits := b.BiasAdd(b.MatMul(flat, wFC), bFC)
	labels := b.Input("labels", tensor.I32, bs)
	loss := b.SoftmaxXentLoss(logits, labels)

	// Backward pass + SGD momentum updates make it a full training step.
	if err := ops.Backprop(b, loss, ops.SGDMomentum{LR: 0.05, Mu: 0.9}); err != nil {
		log.Fatal(err)
	}
	if err := b.G.Validate(); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("Built %s: %d nodes, %d params tensors\n",
		b.G.Name, len(b.G.Nodes()), len(b.G.Params()))
	fmt.Println("Symbolic step FLOPs:", b.G.TotalFLOPs())

	// Analytical characterization at batch 4, through the compiled bundle:
	// every cost expression is lowered to a slot-indexed program once, and
	// each new evaluation point is just "write slots, run programs".
	env := symbolic.Env{"b": 4}
	c := b.G.Compile()
	slots := c.NewSlots()
	if err := c.Bind(slots, env); err != nil {
		log.Fatal(err)
	}
	stats := c.EvalStats(slots)
	fp, err := c.Footprint(slots, graph.PolicyMemGreedy)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nAnalytical @ b=4: params=%.0f  FLOPs=%.0f  bytes=%.0f  "+
		"intensity=%.2f  footprint=%.1f KB\n",
		stats.Params, stats.FLOPs, stats.Bytes, stats.Intensity, fp.PeakBytes/1e3)

	// Execute the training step numerically and compare executed FLOPs.
	rt, err := exec.NewRuntime(b.G, env, 7)
	if err != nil {
		log.Fatal(err)
	}
	prof, err := rt.Run()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("Executed  @ b=4: FLOPs=%.0f (match: %v)\n",
		prof.TotalFLOPs, prof.TotalFLOPs == stats.FLOPs)

	lossVal, _ := rt.Value(loss.Name)
	fmt.Printf("Training-step loss: %.4f (random init, 10 classes: ~ln(10)=2.30)\n",
		lossVal.F[0])

	// The same compiled graph re-characterized at a larger batch — no
	// rebuild, no recompilation, just a new slot value.
	if err := c.Bind(slots, symbolic.Env{"b": 64}); err != nil {
		log.Fatal(err)
	}
	stats64 := c.EvalStats(slots)
	fmt.Printf("\nAnalytical @ b=64: FLOPs=%.0f (%.1fx the b=4 step)\n",
		stats64.FLOPs, stats64.FLOPs/stats.FLOPs)
	_ = core.LogSpace // the core package offers sweeps for custom models too
}
