package testutil

import (
	"math/rand"
	"testing"

	"cocco/internal/graph"
	"cocco/internal/partition"
)

// TestRandomDAGDeterministic pins that the generator is a pure function of
// (seed, n, opts): regenerating yields an identical graph, and different
// seeds yield different graphs (over this size the chance of a collision is
// negligible — a collision would signal the seed being ignored).
func TestRandomDAGDeterministic(t *testing.T) {
	opts := DAGOpts{PJoin: 0.4, PSkip: 0.3}
	a := RandomDAG(17, 24, opts)
	b := RandomDAG(17, 24, opts)
	if a.Len() != b.Len() || a.Edges() != b.Edges() {
		t.Fatalf("same seed, different shape: %d/%d nodes, %d/%d edges", a.Len(), b.Len(), a.Edges(), b.Edges())
	}
	for _, n := range a.Nodes() {
		m := b.Node(n.ID)
		if n.Kind != m.Kind || n.OutC != m.OutC || n.OutH != m.OutH || n.OutW != m.OutW {
			t.Fatalf("same seed, node %d differs: %+v vs %+v", n.ID, n, m)
		}
	}
	c := RandomDAG(18, 24, opts)
	same := c.Len() == a.Len() && c.Edges() == a.Edges()
	if same {
		for _, n := range a.Nodes() {
			m := c.Node(n.ID)
			if n.Kind != m.Kind || n.OutC != m.OutC {
				same = false
				break
			}
		}
	}
	if same {
		t.Error("seeds 17 and 18 generated identical graphs")
	}
}

// TestRandomDAGShapes sweeps the option space and checks structural
// soundness: requested node count, layered reachability (finalize would
// reject dangling producers), and join fan-in staying within bounds.
func TestRandomDAGShapes(t *testing.T) {
	for seed := int64(0); seed < 30; seed++ {
		n := 4 + int(seed)%28
		opts := DAGOpts{
			Layers:   int(seed) % 9,
			PJoin:    float64(seed%5) / 5,
			PSkip:    float64(seed%3) / 3,
			MaxFanIn: 1 + int(seed)%3,
		}
		g := RandomDAG(seed, n, opts)
		if got := len(g.ComputeNodes()); got != n {
			t.Fatalf("seed %d: %d compute nodes, want %d", seed, got, n)
		}
		for _, id := range g.ComputeNodes() {
			nd := g.Node(id)
			if nd.Kind == graph.OpEltwise || nd.Kind == graph.OpConcat {
				if len(g.PredIDs(id)) > 1+opts.MaxFanIn {
					t.Fatalf("seed %d: join %d has fan-in %d > %d", seed, id, len(g.PredIDs(id)), 1+opts.MaxFanIn)
				}
			}
		}
	}
}

// TestRandomDAGDisabledFeatures pins the negative-probability escape
// hatch: PJoin<0 yields a join-free graph, PSkip<0 only previous-layer
// wiring (every non-join node's producer sits one layer up is not directly
// observable, but the graph must still build and validate).
func TestRandomDAGDisabledFeatures(t *testing.T) {
	for seed := int64(0); seed < 10; seed++ {
		g := RandomDAG(seed, 20, DAGOpts{PJoin: -1, PSkip: -1})
		for _, id := range g.ComputeNodes() {
			if k := g.Node(id).Kind; k == graph.OpEltwise || k == graph.OpConcat {
				t.Fatalf("seed %d: PJoin=-1 still produced a join (node %d)", seed, id)
			}
		}
		if err := partition.Singletons(g).Validate(); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	}
}

// FuzzRandomDAG is the CI fuzz target: whatever the generator parameters,
// the graph builds, and partitions of it repair into validity —
// FromRepaired either rejects the assignment as unschedulable or returns a
// partition that passes Validate.
func FuzzRandomDAG(f *testing.F) {
	f.Add(int64(1), uint8(12), uint8(0), uint8(40), uint8(20), int64(2))
	f.Add(int64(7), uint8(40), uint8(3), uint8(80), uint8(60), int64(9))
	f.Add(int64(-5), uint8(1), uint8(9), uint8(0), uint8(0), int64(0))
	f.Fuzz(func(t *testing.T, seed int64, n, layers, pjoin, pskip uint8, assignSeed int64) {
		nodes := 1 + int(n)%64
		opts := DAGOpts{
			Layers: int(layers) % 12,
			PJoin:  float64(pjoin%100) / 100,
			PSkip:  float64(pskip%100) / 100,
		}
		g := RandomDAG(seed, nodes, opts)
		if got := len(g.ComputeNodes()); got != nodes {
			t.Fatalf("%d compute nodes, want %d", got, nodes)
		}

		// Singleton partitions of a valid layered DAG always validate.
		if err := partition.Singletons(g).Validate(); err != nil {
			t.Fatalf("singletons invalid: %v", err)
		}

		// An arbitrary assignment either repairs into validity or is
		// rejected as unschedulable — never a panic, never an invalid
		// partition slipping through.
		rng := rand.New(rand.NewSource(assignSeed))
		assign := make([]int, g.Len())
		groups := 1 + rng.Intn(nodes)
		for _, id := range g.ComputeNodes() {
			assign[id] = rng.Intn(groups)
		}
		p, err := partition.FromRepaired(g, assign)
		if err != nil {
			return
		}
		if err := p.Validate(); err != nil {
			t.Fatalf("repaired partition invalid: %v\nassign: %v", err, assign)
		}
	})
}
