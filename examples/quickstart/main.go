// Quickstart: build a small computation graph, derive the consumption-centric
// execution scheme for a subgraph, size its buffer regions, and run a short
// Cocco search for a good partition.
package main

import (
	"fmt"
	"log"

	"cocco/internal/core"
	"cocco/internal/eval"
	"cocco/internal/graph"
	"cocco/internal/hw"
	"cocco/internal/partition"
	"cocco/internal/report"
	"cocco/internal/tiling"
)

func main() {
	// 1. Build a toy residual network with the graph builder.
	b := graph.NewBuilder("toy-resnet")
	in := b.Input("input", 3, 64, 64)
	stem := b.Conv("stem", in, 32, 3, 2)
	l := b.Conv("branch_l", stem, 32, 3, 1)
	r := b.Conv("branch_r", stem, 32, 1, 1)
	add := b.Eltwise("add", l, r)
	down := b.Conv("down", add, 64, 3, 2)
	head := b.FC("head", down, 10)
	g, err := b.Finalize()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("graph %s: %d nodes, %d edges, %s weights\n",
		g.Name, g.Len(), g.Edges(), report.Bytes(g.TotalWeightBytes()))

	// 2. Derive the subgraph execution scheme (§3.1's three-stage flow) for
	// the residual block and inspect Δ / x / upd_num per node.
	members := []int{l, r, add}
	scheme, err := tiling.Derive(g, members, tiling.DefaultConfig())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\nconsumption-centric scheme for the residual block:")
	for _, id := range append([]int{stem}, members...) {
		ns := scheme.Nodes[id]
		fmt.Printf("  %-9s Δ=%d x=%d upd=%d external=%v\n",
			g.Node(id).Name, ns.DeltaH, ns.TileH, ns.UpdH, ns.External)
	}

	// 3. Size each node's MAIN (resident tile) and SIDE (overlap rows kept
	// for the next row loop) buffer regions (§3.2, Figure 7).
	fmt.Println("\nbuffer regions:")
	for _, id := range append([]int{stem}, members...) {
		ns := scheme.Nodes[id]
		fmt.Printf("  %-9s MAIN %-8s SIDE %s\n", g.Node(id).Name, report.Bytes(ns.Main), report.Bytes(ns.Side))
	}
	fmt.Printf("  activation footprint: %s\n", report.Bytes(scheme.TotalFootprintBytes()))

	// 4. Search for a partition with Cocco on a fixed configuration.
	ev, err := eval.New(g, hw.DefaultPlatform(), tiling.DefaultConfig())
	if err != nil {
		log.Fatal(err)
	}
	mem := hw.MemConfig{Kind: hw.SeparateBuffer, GlobalBytes: 64 * hw.KiB, WeightBytes: 256 * hw.KiB}
	best, stats, err := core.Run(ev, core.Options{
		Seed:       1,
		Population: 30,
		MaxSamples: 2_000,
		Objective:  eval.Objective{Metric: eval.MetricEMA},
		Mem:        core.MemSearch{Fixed: mem},
	})
	if err != nil {
		log.Fatal(err)
	}
	baseline := ev.Partition(partition.Singletons(g), mem)
	fmt.Printf("\nCocco partition after %d samples: EMA %s (singletons: %s), %d subgraphs\n",
		stats.Samples, report.Bytes(best.Res.EMABytes), report.Bytes(baseline.EMABytes),
		best.P.NumSubgraphs())
	_ = head
}
