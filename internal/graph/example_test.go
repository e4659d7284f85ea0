package graph_test

import (
	"fmt"

	"cocco/internal/graph"
)

// ExampleBuilder constructs a small residual block and inspects its
// structure.
func ExampleBuilder() {
	b := graph.NewBuilder("block")
	in := b.Input("in", 3, 32, 32)
	c1 := b.Conv("c1", in, 16, 3, 1)
	l := b.Conv("left", c1, 16, 3, 1)
	r := b.Conv("right", c1, 16, 1, 1)
	add := b.Eltwise("add", l, r)
	g, err := b.Finalize()
	if err != nil {
		panic(err)
	}
	fmt.Printf("nodes=%d edges=%d weights=%dB\n", g.Len(), g.Edges(), g.TotalWeightBytes())
	fmt.Printf("add consumes %d producers; c1 feeds %d consumers\n",
		len(g.PredIDs(add)), len(g.SuccIDs(c1)))
	// Output:
	// nodes=5 edges=5 weights=2992B
	// add consumes 2 producers; c1 feeds 2 consumers
}
