// Package testutil provides deterministic random computation-graph
// generation for property-based tests: random layered DAGs with mixed
// operator kinds, kernel sizes, and strides, plus random connected-subgraph
// selection. ResumedStats is the resumed-vs-uninterrupted statistics check
// the checkpoint suites share.
package testutil

import (
	"fmt"
	"math/rand"

	"cocco/internal/graph"
)

// RandomGraph generates a random layered DAG with the given number of
// compute nodes. Nodes are convolutions, depth-wise convolutions, poolings,
// and element-wise joins with kernel sizes in {1,3,5} and strides in {1,2},
// wired to random earlier nodes. The same seed always yields the same graph.
func RandomGraph(seed int64, nodes int) *graph.Graph {
	rng := rand.New(rand.NewSource(seed))
	b := graph.NewBuilder(fmt.Sprintf("rand-%d-%d", seed, nodes))
	in := b.Input("in", 8, 64, 64)
	prev := []int{in}

	for i := 0; i < nodes; i++ {
		name := fmt.Sprintf("n%d", i)
		src := prev[rng.Intn(len(prev))]
		_, h, w, _ := b.OutShape(src)
		var id int
		switch k := rng.Intn(10); {
		case k < 4: // conv
			kernel := []int{1, 3, 5}[rng.Intn(3)]
			stride := 1
			// Keep spatial extents sane: stride 2 only while big enough.
			if h > 8 && w > 8 && rng.Intn(4) == 0 {
				stride = 2
			}
			id = b.Conv(name, src, 8*(1+rng.Intn(4)), kernel, stride)
		case k < 6: // depth-wise
			id = b.DWConv(name, src, []int{3, 5}[rng.Intn(2)], 1)
		case k < 8: // pool
			id = b.Pool(name, src, 3, 1)
		default: // eltwise join with a shape-compatible sibling, if any
			sib := -1
			c, _, _, _ := b.OutShape(src)
			for _, cand := range prev {
				cc, hh, ww, _ := b.OutShape(cand)
				if cand != src && cc == c && hh == h && ww == w {
					sib = cand
					break
				}
			}
			if sib < 0 {
				id = b.Pool(name, src, 3, 1)
			} else {
				id = b.Eltwise(name, src, sib)
			}
		}
		prev = append(prev, id)
	}
	return b.MustFinalize()
}

// RandomConnectedSubgraph picks a random weakly connected set of compute
// nodes of size in [1, maxSize], grown from a random seed node. The same
// rng state always yields the same set.
func RandomConnectedSubgraph(rng *rand.Rand, g *graph.Graph, maxSize int) []int {
	nodes := g.ComputeNodes()
	if maxSize < 1 {
		maxSize = 1
	}
	target := 1 + rng.Intn(maxSize)
	start := nodes[rng.Intn(len(nodes))]
	set := map[int]bool{start: true}
	frontier := []int{start}
	for len(set) < target && len(frontier) > 0 {
		i := rng.Intn(len(frontier))
		u := frontier[i]
		frontier[i] = frontier[len(frontier)-1]
		frontier = frontier[:len(frontier)-1]
	grow:
		for _, run := range [2][]int32{g.PredIDs(u), g.SuccIDs(u)} {
			for _, w := range run {
				v := int(w)
				if g.Node(v).Kind == graph.OpInput || set[v] {
					continue
				}
				set[v] = true
				frontier = append(frontier, v)
				if len(set) >= target {
					break grow
				}
			}
		}
	}
	out := make([]int, 0, len(set))
	for id := range set {
		out = append(out, id)
	}
	sortInts(out)
	return out
}

func sortInts(a []int) {
	for i := 1; i < len(a); i++ {
		for j := i; j > 0 && a[j] < a[j-1]; j-- {
			a[j], a[j-1] = a[j-1], a[j]
		}
	}
}
