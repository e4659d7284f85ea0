package models

import (
	"math/rand"
	"strconv"

	"cocco/internal/graph"
)

// NasNet builds a NASNet-A-like cell network: a stem convolution followed by
// three groups of four normal cells separated by reduction cells, then the
// classifier. The cell wiring follows the NASNet-A pattern of five
// two-input combine blocks drawing from the two previous cell outputs, with
// the unconsumed blocks concatenated — producing the irregular multi-branch
// structure the paper evaluates. (Exact NASNet-A would require the released
// architecture checkpoint; this deterministic reconstruction preserves the
// graph-shape class — see DESIGN.md substitutions.)
func NasNet() *graph.Graph {
	b := graph.NewBuilder("nasnet")
	x := b.Input("input", 3, 224, 224)
	stem := b.Conv("stem", x, 32, 3, 2)

	sep := func(name string, from, outC, k, stride int) int {
		d := b.DWConv(name+"_dw", from, k, stride)
		return b.Conv(name+"_pw", d, outC, 1, 1)
	}

	// cell combines the two previous outputs (prev = h, prevPrev = p) into a
	// new output with `f` filters, using stride 2 for reduction cells.
	cell := func(name string, h, p int, f, stride int) int {
		// Fit both inputs to f channels and a common spatial size: p may be
		// one reduction behind h, so derive its fit stride from the actual
		// shapes.
		_, hH, _, _ := b.OutShape(h)
		_, pH, _, _ := b.OutShape(p)
		target := (hH + stride - 1) / stride
		pStride := pH / target
		if pStride < 1 {
			pStride = 1
		}
		h1 := b.Conv(name+"_fit_h", h, f, 1, stride)
		p1 := b.Conv(name+"_fit_p", p, f, 1, pStride)
		// Five combine blocks (NASNet-A normal-cell mix of separable convs,
		// poolings and identities).
		b1 := b.Eltwise(name+"_b1", sep(name+"_b1s5", p1, f, 5, 1), sep(name+"_b1s3", h1, f, 3, 1))
		b2 := b.Eltwise(name+"_b2", sep(name+"_b2s5", p1, f, 5, 1), sep(name+"_b2s3", p1, f, 3, 1))
		b3 := b.Eltwise(name+"_b3", b.Pool(name+"_b3p", h1, 3, 1), p1)
		b4 := b.Eltwise(name+"_b4", b.Pool(name+"_b4pa", p1, 3, 1), b.Pool(name+"_b4pb", p1, 3, 1))
		b5 := b.Eltwise(name+"_b5", sep(name+"_b5s3", b1, f, 3, 1), h1)
		return b.Concat(name+"_concat", b2, b3, b4, b5)
	}

	f := 64
	prevPrev, prev := stem, stem
	cellIdx := 0
	for group := 0; group < 3; group++ {
		for i := 0; i < 4; i++ {
			cellIdx++
			out := cell("n"+strconv.Itoa(cellIdx), prev, prevPrev, f, 1)
			prevPrev, prev = prev, out
		}
		if group < 2 {
			cellIdx++
			f *= 2
			out := cell("r"+strconv.Itoa(cellIdx), prev, prevPrev, f, 2)
			prevPrev, prev = prev, out
		}
	}
	gp := b.GlobalPool("avgpool", prev)
	b.FC("fc", gp, 1000)
	return b.MustFinalize()
}

// RandWireA builds the "small regime" randomly-wired network: a stem and two
// Watts–Strogatz stages of 32 nodes (K=4, P=0.75), per Xie et al. Seeded so
// the topology is identical on every run.
func RandWireA() *graph.Graph {
	return randWire("randwire-a", 7, []wsStage{
		{nodes: 32, channels: 64},
		{nodes: 32, channels: 128},
	})
}

// RandWireB builds the "regular regime" variant with three stages.
func RandWireB() *graph.Graph {
	return randWire("randwire-b", 11, []wsStage{
		{nodes: 32, channels: 64},
		{nodes: 32, channels: 128},
		{nodes: 32, channels: 256},
	})
}

type wsStage struct {
	nodes    int
	channels int
}

// randWire constructs the randomly-wired model: each stage is a DAG obtained
// by orienting a Watts–Strogatz small-world graph from lower to higher node
// index. Stage-internal nodes aggregate their inputs (element-wise) and
// apply a 3×3 convolution; nodes with no in-edges read the stage input and
// nodes with no out-edges feed the stage output join.
func randWire(name string, seed int64, stages []wsStage) *graph.Graph {
	rng := rand.New(rand.NewSource(seed))
	b := graph.NewBuilder(name)
	x := b.Input("input", 3, 224, 224)
	x = b.Conv("stem", x, 32, 3, 2)

	for si, st := range stages {
		prefix := "s" + strconv.Itoa(si+1)
		// Stage entry: stride-2 conv to st.channels.
		entry := b.Conv(prefix+"_entry", x, st.channels, 3, 2)
		edges := wattsStrogatz(rng, st.nodes, 4, 0.75)

		nodeOut := make([]int, st.nodes)
		hasOut := make([]bool, st.nodes)
		var ins []int
		for v, e := 0, 0; v < st.nodes; v++ {
			// v's in-edges are the next run of the edge list.
			ins = ins[:0]
			for ; e < len(edges) && edges[e][1] == v; e++ {
				ins = append(ins, nodeOut[edges[e][0]])
				hasOut[edges[e][0]] = true
			}
			src := entry
			switch len(ins) {
			case 0:
				// reads the stage input directly
			case 1:
				src = ins[0]
			default:
				src = b.Eltwise(prefix+"_n"+strconv.Itoa(v)+"_agg", ins...)
			}
			nodeOut[v] = b.Conv(prefix+"_n"+strconv.Itoa(v)+"_conv", src, st.channels, 3, 1)
		}
		// Stage output: join all sinks.
		var sinks []int
		for v := 0; v < st.nodes; v++ {
			if !hasOut[v] {
				sinks = append(sinks, nodeOut[v])
			}
		}
		if len(sinks) == 1 {
			x = sinks[0]
		} else {
			x = b.Eltwise(prefix+"_join", sinks...)
		}
	}
	x = b.GlobalPool("avgpool", x)
	b.FC("fc", x, 1000)
	return b.MustFinalize()
}

// wattsStrogatz generates the WS(n, k, p) small-world graph and orients
// every edge from the lower to the higher node index, yielding a DAG.
// Returned edges are [from, to] pairs with from < to, deduplicated, sorted
// by to and then from, so each node's in-edges form one run.
func wattsStrogatz(rng *rand.Rand, n, k int, p float64) [][2]int {
	// adj is the n×n adjacency bitmap, one bool per cell: the undirected
	// edge a–c is adj[edge(a, c)].
	adj := make([]bool, n*n)
	edge := func(a, c int) int { return min(a, c)*n + max(a, c) }
	// Ring lattice: each node connects to k/2 neighbors on each side.
	for v := 0; v < n; v++ {
		for j := 1; j <= k/2; j++ {
			if c := (v + j) % n; c != v {
				adj[edge(v, c)] = true
			}
		}
	}
	// Rewire each lattice edge with probability p, visiting the lattice in
	// (lower, higher) order so the RNG draws are reproducible.
	var lattice [][2]int
	for a := 0; a < n; a++ {
		for c := a + 1; c < n; c++ {
			if adj[edge(a, c)] {
				lattice = append(lattice, [2]int{a, c})
			}
		}
	}
	for _, e := range lattice {
		if rng.Float64() < p {
			adj[edge(e[0], e[1])] = false
			for {
				if t := rng.Intn(n); t != e[0] && !adj[edge(e[0], t)] {
					adj[edge(e[0], t)] = true
					break
				}
			}
		}
	}
	out := make([][2]int, 0, len(lattice))
	for c := 0; c < n; c++ {
		for a := 0; a < c; a++ {
			if adj[edge(a, c)] {
				out = append(out, [2]int{a, c})
			}
		}
	}
	return out
}
