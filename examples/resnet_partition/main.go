// resnet_partition compares the graph-partition optimizers on ResNet50 with
// the paper's fixed platform (1 MB global buffer + 1.125 MB weight buffer),
// the Figure 11 scenario: Halide's greedy, Irregular-NN's DP, the exact
// enumeration, and Cocco, all minimizing external memory access.
package main

import (
	"fmt"
	"log"

	"cocco/internal/baselines"
	"cocco/internal/core"
	"cocco/internal/eval"
	"cocco/internal/hw"
	"cocco/internal/models"
	"cocco/internal/partition"
	"cocco/internal/report"
	"cocco/internal/tiling"
)

func main() {
	g := models.MustBuild("resnet50")
	ev, err := eval.New(g, hw.DefaultPlatform(), tiling.DefaultConfig())
	if err != nil {
		log.Fatal(err)
	}
	mem := hw.MemConfig{Kind: hw.SeparateBuffer, GlobalBytes: 1024 * hw.KiB, WeightBytes: 1152 * hw.KiB}

	show := func(method string, p *partition.Partition) {
		res := ev.Partition(p, mem)
		fmt.Printf("%-18s EMA=%-9s BW=%-10s subgraphs=%d\n",
			method, report.Bytes(res.EMABytes), report.GBps(res.AvgBWBytesPerSec), p.NumSubgraphs())
	}

	show("layer-by-layer", partition.Singletons(g))

	gp, _ := baselines.Greedy(ev, mem, eval.MetricEMA)
	show("Halide (greedy)", gp)

	dp, _ := baselines.DP(ev, mem, eval.MetricEMA)
	show("Irregular-NN (DP)", dp)

	ep, _, err := baselines.Enumerate(ev, mem, eval.MetricEMA)
	if err != nil {
		fmt.Printf("%-18s %v\n", "enumeration", err)
	} else {
		show("enumeration", ep)
	}

	best, _, err := core.Run(ev, core.Options{
		Seed:       42,
		Population: 100,
		MaxSamples: 30_000,
		Objective:  eval.Objective{Metric: eval.MetricEMA},
		Mem:        core.MemSearch{Fixed: mem},
	})
	if err != nil {
		log.Fatal(err)
	}
	show("Cocco (GA)", best.P)

	fmt.Println("\nCocco's subgraphs:")
	for s, members := range best.P.Subgraphs() {
		c := ev.Subgraph(members)
		fmt.Printf("  #%-3d %-2d layers: %s..%s  (wgt %s, act %s)\n",
			s, len(members), g.Node(members[0]).Name, g.Node(members[len(members)-1]).Name,
			report.Bytes(c.WeightBytes), report.Bytes(c.ActFootprint))
	}
}
