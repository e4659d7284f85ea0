package exec

import (
	"strings"
	"testing"

	"cocco/internal/core"
	"cocco/internal/eval"
	"cocco/internal/graph"
	"cocco/internal/hw"
	"cocco/internal/models"
	"cocco/internal/partition"
	"cocco/internal/tiling"
)

// fig5Graph builds the paper's Figure 5 example: inputs A(-2), B(-1);
// n0 = 3×3/2 conv of A; n1 = 3×3/1 conv of A and B; n2 = 1×1/1 conv of B.
func fig5Graph(t *testing.T) (*graph.Graph, *tiling.Scheme, []int) {
	t.Helper()
	b := graph.NewBuilder("fig5")
	a := b.Input("A", 8, 64, 64)
	bb := b.Input("B", 8, 64, 64)
	n0 := b.Custom("n0", graph.OpConv, 3, 2, 8, 8, 31, 31, a)
	n1 := b.Custom("n1", graph.OpConv, 3, 1, 16, 8, 62, 62, a, bb)
	n2 := b.Custom("n2", graph.OpConv, 1, 1, 8, 8, 64, 64, bb)
	g, err := b.Finalize()
	if err != nil {
		t.Fatal(err)
	}
	s, err := tiling.Derive(g, []int{n0, n1, n2}, tiling.Config{BaseTileH: 2, BaseTileW: 2})
	if err != nil {
		t.Fatal(err)
	}
	return g, s, []int{a, bb, n0, n1, n2}
}

func TestSimulateFigure6Snapshots(t *testing.T) {
	g, s, ids := fig5Graph(t)
	a, bb, n0, n1, n2 := ids[0], ids[1], ids[2], ids[3], ids[4]

	tr, err := Simulate(g, s, 3)
	if err != nil {
		t.Fatal(err)
	}
	// Figure 6, first elementary operation: A covers [0:5] (6 rows),
	// B [0:5] (prologue covers both updates), n0 [0:1], n1 [0:3], n2 [0:3].
	first := tr.Snapshots[0]
	wantFirst := map[int][2]int64{
		a:  {0, 6},
		bb: {2, 6}, // produced 6, retains x=4
		n0: {0, 2},
		n1: {2, 4}, // produced 4 (2 updates of Δ=2), retains x=2
		n2: {2, 4},
	}
	for id, w := range wantFirst {
		got := first[id]
		if got.From != w[0] || got.To != w[1] {
			t.Errorf("op0 node %d: window [%d:%d), want [%d:%d)", id, got.From, got.To, w[0], w[1])
		}
	}
	// Figure 6, second elementary operation: A advances Δ=4 to [4:9]
	// (rows 4..9), B two updates of Δ=2 to [6:9].
	second := tr.Snapshots[1]
	if got := second[a]; got.From != 4 || got.To != 10 {
		t.Errorf("op1 A window [%d:%d), want [4:10) (the paper's [4:9])", got.From, got.To)
	}
	if got := second[bb]; got.From != 6 || got.To != 10 {
		t.Errorf("op1 B window [%d:%d), want [6:10) (the paper's [6:9])", got.From, got.To)
	}
	// Steady advances: A +4, B +4 (2×2), n0 +2, n1 +4, n2 +4.
	adv := map[int]int64{a: 4, bb: 4, n0: 2, n1: 4, n2: 4}
	for _, u := range tr.Ops[2].Updates {
		if u.Rows() != adv[u.Node] {
			t.Errorf("op2 node %d advanced %d, want %d", u.Node, u.Rows(), adv[u.Node])
		}
	}
}

func TestSimulateDeepChainPrologue(t *testing.T) {
	// in -> c1(3/1) -> c2(3/2) -> c3(3/1): the prologue must materialize the
	// nested windows (in: 9 rows for c1's 7, etc.), then go uniform.
	b := graph.NewBuilder("chain")
	in := b.Input("in", 8, 64, 64)
	c1 := b.Conv("c1", in, 8, 3, 1)
	c2 := b.Conv("c2", c1, 8, 3, 2)
	c3 := b.Conv("c3", c2, 8, 3, 1)
	g := b.MustFinalize()
	s, err := tiling.Derive(g, []int{c1, c2, c3}, tiling.Config{BaseTileH: 2, BaseTileW: 2})
	if err != nil {
		t.Fatal(err)
	}
	tr, err := Simulate(g, s, 4)
	if err != nil {
		t.Fatal(err)
	}
	// Nested windows: c3 needs 2; c2 needs 3+(2-1)·1 = 4; c1 needs
	// 3+(4-1)·2 = 9; in needs 3+(9-1)·1 = 11.
	want := map[int]int64{in: 11, c1: 9, c2: 4, c3: 2}
	for id, w := range want {
		if tr.PrologueRows[id] != w {
			t.Errorf("prologue node %d = %d rows, want %d", id, tr.PrologueRows[id], w)
		}
	}
	// Steady state: everyone advances upd·Δ.
	for _, u := range tr.Ops[3].Updates {
		ns := s.Nodes[u.Node]
		if u.Rows() != ns.UpdH*ns.DeltaH {
			t.Errorf("steady node %d advanced %d, want %d", u.Node, u.Rows(), ns.UpdH*ns.DeltaH)
		}
	}
}

func TestSimulateInvariantsOnRealModels(t *testing.T) {
	// Validate the derived schemes of real fused subgraphs end-to-end.
	for _, model := range []string{"resnet50", "googlenet", "randwire-a"} {
		g := models.MustBuild(model)
		// Fuse consecutive runs of 4 compute nodes.
		nodes := g.ComputeNodes()
		in, seen := graph.NewMarks(g.Len()), graph.NewMarks(g.Len())
		for start := 0; start+4 <= len(nodes) && start < 40; start += 4 {
			members := nodes[start : start+4]
			in.Reset()
			for _, id := range members {
				in.Set(id)
			}
			seen.Reset()
			if len(g.AppendComponent(nil, members[0], in, seen)) != len(members) {
				continue
			}
			s, err := tiling.Derive(g, members, tiling.DefaultConfig())
			if err != nil {
				t.Fatalf("%s[%d]: derive: %v", model, start, err)
			}
			if _, err := Simulate(g, s, 5); err != nil {
				t.Errorf("%s[%d]: %v", model, start, err)
			}
		}
	}
}

// TestSimulateSearchedSubgraphs is the simulator's witness over the
// subgraphs a search actually costs, not only hand-picked runs: a seeded
// search fills the evaluator's cost cache, and every member set in it must
// derive a scheme that runs four elementary operations without breaking an
// invariant, with one footprint on all three paths — the materialized
// scheme, the Deriver's allocation-free sum, and the cost the search charged.
func TestSimulateSearchedSubgraphs(t *testing.T) {
	cfg := tiling.DefaultConfig()
	// Searched capacities make repair split at many buffer sizes, which
	// widens the set of subgraphs the run costs.
	mem := core.MemSearch{Search: true, Kind: hw.SeparateBuffer, Global: hw.PaperGlobalRange(), Weight: hw.PaperWeightRange()}
	for _, model := range []string{"resnet50", "googlenet", "nasnet", "randwire-a", "densenet121"} {
		t.Run(model, func(t *testing.T) {
			g := models.MustBuild(model)
			ev, err := eval.New(g, hw.DefaultPlatform(), cfg)
			if err != nil {
				t.Fatal(err)
			}
			if _, _, err := core.Run(ev, core.Options{
				Seed: 1, Workers: 2, Population: 30, MaxSamples: 1500,
				Objective: eval.Objective{Metric: eval.MetricEMA},
				Mem:       mem,
			}); err != nil {
				t.Fatal(err)
			}
			snap, err := ev.ExportCache()
			if err != nil {
				t.Fatal(err)
			}
			if len(snap.Entries) < 500 {
				t.Fatalf("the search costed only %d subgraphs, want at least 500", len(snap.Entries))
			}
			der, err := tiling.NewDeriver(g, cfg)
			if err != nil {
				t.Fatal(err)
			}
			var members []int
			for _, e := range snap.Entries {
				members = partition.AppendKeyMembers(members[:0], string(snap.Arena[e.Off:e.Off+e.KeyLen]))
				s, err := tiling.Derive(g, members, cfg)
				if err != nil {
					t.Fatalf("%v: derive: %v", members, err)
				}
				if _, err := Simulate(g, s, 4); err != nil {
					t.Errorf("%v: %v", members, err)
				}
				fp, err := der.TotalFootprint(members)
				if err != nil {
					t.Fatalf("%v: Deriver: %v", members, err)
				}
				if got := s.TotalFootprintBytes(); got != fp || got != e.ActFootprint {
					t.Errorf("%v: scheme footprint %d, Deriver %d, cached %d", members, got, fp, e.ActFootprint)
				}
			}
			t.Logf("%d subgraphs", len(snap.Entries))
		})
	}
}

func TestOpsToCover(t *testing.T) {
	g, s, ids := fig5Graph(t)
	// n0: OutH=31, per-op rows = upd·Δ = 2 → 16 ops.
	if got := OpsToCover(g, s, ids[2]); got != 16 {
		t.Errorf("OpsToCover(n0) = %d, want 16", got)
	}
	// All nodes of one subgraph should finish within ±1 op of each other
	// (they sweep the same tensor extent at aligned rates).
	first := OpsToCover(g, s, ids[0])
	for _, id := range ids[1:] {
		got := OpsToCover(g, s, id)
		if got < first-1 || got > first+1 {
			t.Errorf("node %d needs %d ops, node %d needs %d: misaligned sweep", id, got, ids[0], first)
		}
	}
}

func TestSimulateErrors(t *testing.T) {
	g, s, _ := fig5Graph(t)
	if _, err := Simulate(g, s, 0); err == nil {
		t.Error("numOps=0 accepted")
	}
}

func TestFormatSnapshot(t *testing.T) {
	g, s, _ := fig5Graph(t)
	tr, err := Simulate(g, s, 1)
	if err != nil {
		t.Fatal(err)
	}
	out := FormatSnapshot(g, s, tr.Snapshots[0])
	if !strings.Contains(out, "A size=6 [0:5]") {
		t.Errorf("snapshot format: %s", out)
	}
}
