package graph_test

import (
	"math/rand"
	"slices"
	"sort"
	"strconv"
	"testing"

	"cocco/internal/graph"
	"cocco/internal/models"
)

// spec is a builder input: each node's kind and its producer ids in the
// order they were passed, which may be unsorted and repeat ids.
type spec struct {
	kinds     []graph.OpKind
	producers [][]int
}

// build feeds s to a Builder, one Custom (or Input) call per node.
func (s spec) build(t *testing.T) *graph.Graph {
	t.Helper()
	b := graph.NewBuilder("spec")
	for v, kind := range s.kinds {
		name := "n" + strconv.Itoa(v)
		var id int
		if kind == graph.OpInput {
			id = b.Input(name, 1, 1, 1)
		} else {
			id = b.Custom(name, kind, 1, 1, 1, 1, 1, 1, s.producers[v]...)
		}
		if id != v {
			t.Fatalf("node %d got id %d: %v", v, id, b.Err())
		}
	}
	g, err := b.Finalize()
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// refAdjacency derives adjacency as the builder did before it stored edges
// flat: one append per edge onto per-node lists, then sort.Ints per node.
func refAdjacency(s spec) (succ, pred [][]int) {
	succ = make([][]int, len(s.kinds))
	pred = make([][]int, len(s.kinds))
	for v, from := range s.producers {
		for _, u := range from {
			succ[u] = append(succ[u], v)
			pred[v] = append(pred[v], u)
		}
	}
	for v := range succ {
		sort.Ints(succ[v])
		sort.Ints(pred[v])
	}
	return succ, pred
}

// checkAgainstReference compares every adjacency, topo and dense-index
// accessor of g with what the reference derives from s.
func checkAgainstReference(t *testing.T, g *graph.Graph, s spec) {
	t.Helper()
	succ, pred := refAdjacency(s)
	n := len(s.kinds)
	if g.Len() != n {
		t.Fatalf("Len = %d, want %d", g.Len(), n)
	}
	edges := 0
	var outputs, inputs, compute []int
	for v := 0; v < n; v++ {
		edges += len(pred[v])
		if len(succ[v]) == 0 {
			outputs = append(outputs, v)
		}
		if s.kinds[v] == graph.OpInput {
			inputs = append(inputs, v)
		} else {
			compute = append(compute, v)
		}
	}
	if g.Edges() != edges {
		t.Errorf("Edges = %d, want %d", g.Edges(), edges)
	}
	if !slices.Equal(g.Outputs(), outputs) {
		t.Errorf("Outputs = %v, want %v", g.Outputs(), outputs)
	}
	if !slices.Equal(g.Inputs(), inputs) {
		t.Errorf("Inputs = %v, want %v", g.Inputs(), inputs)
	}
	if !slices.Equal(g.ComputeIDs(), compute) {
		t.Errorf("ComputeIDs = %v, want %v", g.ComputeIDs(), compute)
	}
	dense := 0
	for v := 0; v < n; v++ {
		for _, c := range []struct {
			what      string
			got, want []int
			ids       []int32
		}{
			{"Succ", g.Succ(v), succ[v], g.SuccIDs(v)},
			{"Pred", g.Pred(v), pred[v], g.PredIDs(v)},
		} {
			if !slices.Equal(c.got, c.want) {
				t.Fatalf("%s(%d) = %v, want %v", c.what, v, c.got, c.want)
			}
			if cap(c.got) != len(c.got) {
				t.Fatalf("%s(%d) has cap %d > len %d: an append would overwrite a neighbour", c.what, v, cap(c.got), len(c.got))
			}
			if len(c.ids) != len(c.want) {
				t.Fatalf("%sIDs(%d) = %v, want %v", c.what, v, c.ids, c.want)
			}
			for i, id := range c.ids {
				if int(id) != c.want[i] {
					t.Fatalf("%sIDs(%d) = %v, want %v", c.what, v, c.ids, c.want)
				}
			}
		}
		if g.Topo()[v] != v || g.Rank(v) != v {
			t.Fatalf("Topo()[%d] = %d, Rank(%d) = %d, want the identity order", v, g.Topo()[v], v, g.Rank(v))
		}
		want := -1
		if s.kinds[v] != graph.OpInput {
			want = dense
			dense++
		}
		if g.DenseIndex(v) != want {
			t.Fatalf("DenseIndex(%d) = %d, want %d", v, g.DenseIndex(v), want)
		}
	}
}

// randomSpec draws a graph of n nodes: node 0 and about one in eight of the
// rest are inputs, every other node reads 1–5 producers drawn with
// repetition from the nodes before it, in draw order.
func randomSpec(rng *rand.Rand, n int) spec {
	s := spec{kinds: make([]graph.OpKind, n), producers: make([][]int, n)}
	for v := 1; v < n; v++ {
		if rng.Intn(8) == 0 {
			continue // OpInput, the zero kind
		}
		s.kinds[v] = graph.OpKind(1 + rng.Intn(int(graph.OpMatmul)))
		for k := 1 + rng.Intn(5); k > 0; k-- {
			s.producers[v] = append(s.producers[v], rng.Intn(v))
		}
	}
	return s
}

func TestBuilderMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 300; i++ {
		s := randomSpec(rng, 2+rng.Intn(80))
		if !slices.ContainsFunc(s.kinds, func(k graph.OpKind) bool { return k != graph.OpInput }) {
			continue // Finalize rejects inputs-only graphs
		}
		checkAgainstReference(t, s.build(t), s)
	}
}

// TestBuilderMatchesReferenceOnZoo checks every zoo model as built, and
// rebuilt from its producer lists shuffled.
func TestBuilderMatchesReferenceOnZoo(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for _, name := range models.Names() {
		t.Run(name, func(t *testing.T) {
			g := models.MustBuild(name)
			s := spec{kinds: make([]graph.OpKind, g.Len()), producers: make([][]int, g.Len())}
			for v := 0; v < g.Len(); v++ {
				s.kinds[v] = g.Node(v).Kind
				s.producers[v] = slices.Clone(g.Pred(v))
				rng.Shuffle(len(s.producers[v]), func(i, j int) {
					p := s.producers[v]
					p[i], p[j] = p[j], p[i]
				})
			}
			checkAgainstReference(t, g, s)
			checkAgainstReference(t, s.build(t), s)
		})
	}
}

func TestBuilderDeadAfterFinalize(t *testing.T) {
	b := graph.NewBuilder("once")
	in := b.Input("in", 3, 8, 8)
	b.Conv("c", in, 4, 3, 1)
	g := b.MustFinalize()
	if id := b.Conv("late", in, 4, 3, 1); id != -1 {
		t.Errorf("Conv after Finalize = %d, want -1", id)
	}
	if _, err := b.Finalize(); err == nil {
		t.Error("second Finalize succeeded")
	}
	if g.Len() != 2 || g.Edges() != 1 {
		t.Errorf("graph changed after Finalize: %d nodes, %d edges", g.Len(), g.Edges())
	}
}
