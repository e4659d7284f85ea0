// Command inspect examines models and subgraph execution schemes: it prints
// a model summary, derives the consumption-centric scheme for a chosen layer
// range, simulates its elementary operations (Figure 6 style), and can dump
// the graph as JSON.
//
// Examples:
//
//	inspect -model resnet50
//	inspect -model googlenet -from 5 -count 7 -ops 3
//	inspect -model vgg16 -json vgg16.json
package main

import (
	"flag"
	"fmt"
	"log"
	"os"

	"cocco/internal/exec"
	"cocco/internal/graph"
	"cocco/internal/hw"
	"cocco/internal/mapper"
	"cocco/internal/models"
	"cocco/internal/report"
	"cocco/internal/serialize"
	"cocco/internal/tiling"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("inspect: ")
	var (
		model    = flag.String("model", "resnet50", "model name")
		from     = flag.Int("from", -1, "first compute-node index of the subgraph to derive (-1 = summary only)")
		count    = flag.Int("count", 4, "number of consecutive compute nodes in the subgraph")
		ops      = flag.Int("ops", 2, "elementary operations to simulate")
		jsonPath = flag.String("json", "", "write the graph as JSON to this path")
	)
	flag.Parse()

	g, err := models.Build(*model)
	if err != nil {
		log.Fatal(err)
	}

	summary(g)

	if *jsonPath != "" {
		data, err := serialize.EncodeGraph(g)
		if err != nil {
			log.Fatal(err)
		}
		if err := os.WriteFile(*jsonPath, data, 0o644); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("\nwrote %s (%d bytes)\n", *jsonPath, len(data))
	}

	if *from < 0 {
		return
	}
	nodes := g.ComputeNodes()
	if *from >= len(nodes) {
		log.Fatalf("-from %d out of range (%d compute nodes)", *from, len(nodes))
	}
	hi := *from + *count
	if hi > len(nodes) {
		hi = len(nodes)
	}
	members := nodes[*from:hi]
	scheme, err := tiling.Derive(g, members, tiling.DefaultConfig())
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("\nscheme for compute nodes %d..%d:\n", *from, hi-1)
	t := report.NewTable("", "node", "role", "ΔH", "xH", "updH", "ΔW", "xW", "updW", "footprint")
	for id := 0; id < g.Len(); id++ {
		ns, ok := scheme.Nodes[id]
		if !ok {
			continue
		}
		role := "intermediate"
		if ns.External {
			role = "external"
		} else if ns.Output {
			role = "output"
		}
		t.AddRow(g.Node(id).Name, role, ns.DeltaH, ns.TileH, ns.UpdH,
			ns.DeltaW, ns.TileW, ns.UpdW, report.Bytes(scheme.FootprintBytes(id)))
	}
	fmt.Println(t.String())
	fmt.Printf("total activation footprint: %s\n", report.Bytes(scheme.TotalFootprintBytes()))

	tr, err := exec.Simulate(g, scheme, *ops)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nmemory snapshots over %d elementary operations:\n", *ops)
	for i, snap := range tr.Snapshots {
		fmt.Printf("  op %d: %s\n", i, exec.FormatSnapshot(g, scheme, snap))
	}
}

func summary(g *graph.Graph) {
	core := hw.DefaultCore()
	fmt.Printf("model %s\n", g.Name)
	fmt.Printf("  nodes     %d (%d compute, %d inputs, %d outputs)\n",
		g.Len(), len(g.ComputeNodes()), len(g.Inputs()), len(g.Outputs()))
	fmt.Printf("  edges     %d\n", g.Edges())
	fmt.Printf("  weights   %s\n", report.Bytes(g.TotalWeightBytes()))
	fmt.Printf("  MACs      %.2fG\n", float64(g.TotalMACs())/1e9)
	fmt.Printf("  mapper    %.1f%% mean PE utilization\n", 100*mapper.GraphUtilization(core, g))

	kinds := map[graph.OpKind]int{}
	for _, n := range g.Nodes() {
		kinds[n.Kind]++
	}
	fmt.Printf("  kinds    ")
	for _, k := range []graph.OpKind{graph.OpConv, graph.OpDWConv, graph.OpPool,
		graph.OpEltwise, graph.OpConcat, graph.OpMatmul} {
		if kinds[k] > 0 {
			fmt.Printf(" %s=%d", k, kinds[k])
		}
	}
	fmt.Println()
}
