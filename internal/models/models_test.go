package models

import (
	"testing"

	"cocco/internal/graph"
)

func TestRegistry(t *testing.T) {
	names := Names()
	if len(names) != 12 {
		t.Fatalf("registered models = %v", names)
	}
	for _, n := range names {
		g, err := Build(n)
		if err != nil {
			t.Fatalf("Build(%s): %v", n, err)
		}
		if g.Name != n {
			t.Errorf("graph name %q != model name %q", g.Name, n)
		}
	}
	if _, err := Build("nope"); err == nil {
		t.Error("unknown model accepted")
	}
}

func TestMustBuildPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MustBuild should panic on unknown model")
		}
	}()
	MustBuild("nope")
}

func TestPaperModelLists(t *testing.T) {
	if got := PaperModels(); len(got) != 8 {
		t.Errorf("paper models = %v", got)
	}
	if got := CoExplorationModels(); len(got) != 4 {
		t.Errorf("co-exploration models = %v", got)
	}
	for _, n := range append(PaperModels(), CoExplorationModels()...) {
		if _, err := Build(n); err != nil {
			t.Errorf("listed model %s not buildable: %v", n, err)
		}
	}
}

// TestStructuralInvariants checks, for every model: a single OpInput source
// feeding everything, weakly connected compute set, topological edges, and
// positive work.
func TestStructuralInvariants(t *testing.T) {
	for _, name := range Names() {
		g := MustBuild(name)
		t.Run(name, func(t *testing.T) {
			if len(g.Inputs()) != 1 {
				t.Errorf("inputs = %v", g.Inputs())
			}
			if len(g.Outputs()) == 0 {
				t.Error("no outputs")
			}
			compute := g.ComputeIDs()
			in := graph.NewMarks(g.Len())
			for _, id := range compute {
				in.Set(id)
			}
			if comp := g.AppendComponent(nil, compute[0], in, graph.NewMarks(g.Len())); len(comp) != len(compute) {
				t.Error("compute nodes not weakly connected")
			}
			for u := 0; u < g.Len(); u++ {
				for _, v := range g.SuccIDs(u) {
					if u >= int(v) {
						t.Fatalf("edge %d->%d not forward", u, v)
					}
				}
			}
			if g.TotalMACs() <= 0 || g.TotalWeightBytes() <= 0 {
				t.Error("no work or no weights")
			}
		})
	}
}

func TestVGG16Shape(t *testing.T) {
	g := MustBuild("vgg16")
	// 13 convs + 5 pools + 3 FC = 21 compute nodes.
	if got := len(g.ComputeNodes()); got != 21 {
		t.Errorf("vgg16 compute nodes = %d, want 21", got)
	}
	// VGG16 weights ≈ 138 M parameters at 1 byte each.
	w := g.TotalWeightBytes()
	if w < 130_000_000 || w > 145_000_000 {
		t.Errorf("vgg16 weights = %d bytes", w)
	}
	// Plain structure: every compute node has exactly one producer.
	for _, id := range g.ComputeNodes() {
		if len(g.PredIDs(id)) != 1 {
			t.Errorf("node %d has %d producers in a plain network", id, len(g.PredIDs(id)))
		}
	}
}

func TestResNetShapes(t *testing.T) {
	r50 := MustBuild("resnet50")
	w := r50.TotalWeightBytes()
	// ResNet50 ≈ 25.5 M parameters.
	if w < 23_000_000 || w > 28_000_000 {
		t.Errorf("resnet50 weights = %d", w)
	}
	// Residual adds exist: some eltwise nodes with 2 producers.
	adds := 0
	for _, n := range r50.Nodes() {
		if n.Kind == graph.OpEltwise && len(r50.PredIDs(n.ID)) == 2 {
			adds++
		}
	}
	if adds != 16 {
		t.Errorf("resnet50 residual adds = %d, want 16", adds)
	}
	r152 := MustBuild("resnet152")
	if r152.Len() <= r50.Len() {
		t.Error("resnet152 should be deeper than resnet50")
	}
	if r152.TotalWeightBytes() < 55_000_000 {
		t.Errorf("resnet152 weights = %d", r152.TotalWeightBytes())
	}
}

func TestGoogleNetBranching(t *testing.T) {
	g := MustBuild("googlenet")
	// Nine inception concats with 4 producers each.
	concats := 0
	for _, n := range g.Nodes() {
		if n.Kind == graph.OpConcat {
			if len(g.PredIDs(n.ID)) != 4 {
				t.Errorf("concat %s has %d branches", n.Name, len(g.PredIDs(n.ID)))
			}
			concats++
		}
	}
	if concats != 9 {
		t.Errorf("inception modules = %d, want 9", concats)
	}
	// GoogleNet ≈ 7 M parameters.
	if w := g.TotalWeightBytes(); w < 5_500_000 || w > 8_000_000 {
		t.Errorf("googlenet weights = %d", w)
	}
}

func TestAttentionStacks(t *testing.T) {
	tr := MustBuild("transformer")
	gpt := MustBuild("gpt")
	// 6 vs 12 layers: GPT must be roughly twice the nodes.
	if gpt.Len() < tr.Len() {
		t.Error("gpt should be deeper than transformer")
	}
	// Attention joins: two per layer (scores, context).
	joins := 0
	for _, n := range tr.Nodes() {
		if n.Kind == graph.OpMatmul && len(tr.PredIDs(n.ID)) == 2 {
			joins++
		}
	}
	if joins != 12 {
		t.Errorf("transformer attention joins = %d, want 12", joins)
	}
	// GPT-1 ≈ 110 M parameters.
	if w := gpt.TotalWeightBytes(); w < 95_000_000 || w > 120_000_000 {
		t.Errorf("gpt weights = %d", w)
	}
}

func TestRandWireDeterministicAndIrregular(t *testing.T) {
	a1 := MustBuild("randwire-a")
	a2 := MustBuild("randwire-a")
	if a1.Len() != a2.Len() || a1.Edges() != a2.Edges() {
		t.Error("randwire-a not deterministic")
	}
	for i := 0; i < a1.Len(); i++ {
		if a1.Node(i).Name != a2.Node(i).Name {
			t.Fatalf("node %d differs across builds", i)
		}
	}
	b := MustBuild("randwire-b")
	if b.Len() <= a1.Len() {
		t.Error("randwire-b should be larger than randwire-a")
	}
	// Irregularity: more edges than a chain would have.
	if a1.Edges() <= a1.Len() {
		t.Errorf("randwire-a looks like a chain: %d edges for %d nodes", a1.Edges(), a1.Len())
	}
}

func TestNasNetCells(t *testing.T) {
	g := MustBuild("nasnet")
	if g.Len() < 200 {
		t.Errorf("nasnet nodes = %d, expected a large cell graph", g.Len())
	}
	// Concats (cell outputs): 14 cells.
	concats := 0
	for _, n := range g.Nodes() {
		if n.Kind == graph.OpConcat {
			concats++
		}
	}
	if concats != 14 {
		t.Errorf("nasnet cells = %d, want 14", concats)
	}
}
