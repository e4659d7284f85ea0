// custom_model walks a user-defined network through the whole pipeline:
// build an inception-style graph with the Builder, export it to JSON, find
// the provably optimal partition by enumeration, confirm Cocco matches it,
// and simulate the winning subgraph's elementary operations.
package main

import (
	"fmt"
	"log"

	"cocco/internal/baselines"
	"cocco/internal/core"
	"cocco/internal/eval"
	"cocco/internal/exec"
	"cocco/internal/graph"
	"cocco/internal/hw"
	"cocco/internal/report"
	"cocco/internal/serialize"
	"cocco/internal/tiling"
)

func main() {
	// A small inception-flavored network.
	b := graph.NewBuilder("custom")
	in := b.Input("input", 3, 96, 96)
	stem := b.Conv("stem", in, 32, 3, 2)
	var blocks []int
	x := stem
	for i := 1; i <= 3; i++ {
		p := fmt.Sprintf("m%d", i)
		b1 := b.Conv(p+"_1x1", x, 32, 1, 1)
		b2 := b.Conv(p+"_3x3r", x, 16, 1, 1)
		b2 = b.Conv(p+"_3x3", b2, 32, 3, 1)
		b3 := b.Pool(p+"_pool", x, 3, 1)
		b3 = b.Conv(p+"_proj", b3, 16, 1, 1)
		x = b.Concat(p+"_cat", b1, b2, b3)
		blocks = append(blocks, x)
	}
	x = b.GlobalPool("gap", x)
	b.FC("head", x, 10)
	g, err := b.Finalize()
	if err != nil {
		log.Fatal(err)
	}

	data, err := serialize.EncodeGraph(g)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("built %s: %d nodes, %d edges (%d JSON bytes)\n",
		g.Name, g.Len(), g.Edges(), len(data))

	ev, err := eval.New(g, hw.DefaultPlatform(), tiling.DefaultConfig())
	if err != nil {
		log.Fatal(err)
	}
	mem := hw.MemConfig{Kind: hw.SeparateBuffer, GlobalBytes: 256 * hw.KiB, WeightBytes: 256 * hw.KiB}

	// Exact optimum by downset-lattice enumeration.
	opt, samples, err := baselines.Enumerate(ev, mem, eval.MetricEMA)
	if err != nil {
		log.Fatal(err)
	}
	optRes := ev.Partition(opt, mem)
	fmt.Printf("\nenumeration optimum: EMA=%s in %d subgraphs (%d candidates scored)\n",
		report.Bytes(optRes.EMABytes), opt.NumSubgraphs(), samples)

	// Cocco should find the same cost.
	best, _, err := core.Run(ev, core.Options{
		Seed: 7, Population: 60, MaxSamples: 10_000,
		Objective: eval.Objective{Metric: eval.MetricEMA},
		Mem:       core.MemSearch{Fixed: mem},
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("Cocco:               EMA=%s in %d subgraphs\n",
		report.Bytes(best.Res.EMABytes), best.P.NumSubgraphs())
	if best.Res.EMABytes == optRes.EMABytes {
		fmt.Println("→ Cocco matched the provable optimum")
	}

	// Trace the largest optimal subgraph.
	var largest []int
	for _, members := range opt.Subgraphs() {
		if len(members) > len(largest) {
			largest = members
		}
	}
	scheme, err := tiling.Derive(g, largest, tiling.DefaultConfig())
	if err != nil {
		log.Fatal(err)
	}
	tr, err := exec.Simulate(g, scheme, 2)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nlargest optimal subgraph (%d layers) simulates cleanly; op-1 snapshot:\n  %s\n",
		len(largest), exec.FormatSnapshot(g, scheme, tr.Snapshots[1]))
	_ = blocks
}
