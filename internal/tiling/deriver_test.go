package tiling

import (
	"math/rand"
	"testing"

	"cocco/internal/graph"
	"cocco/internal/models"
)

// randomSubgraphs draws connected member sets of varying size the way the
// search does: grow a region from a random compute node through graph edges.
func randomSubgraphs(g *graph.Graph, rng *rand.Rand, count int) [][]int {
	nodes := g.ComputeIDs()
	var out [][]int
	for len(out) < count {
		target := 1 + rng.Intn(8)
		seed := nodes[rng.Intn(len(nodes))]
		region := map[int]bool{seed: true}
		frontier := []int{seed}
		for len(region) < target && len(frontier) > 0 {
			u := frontier[rng.Intn(len(frontier))]
			for _, w := range g.SuccIDs(u) {
				if v := int(w); g.Node(v).Kind != graph.OpInput && !region[v] {
					region[v] = true
					frontier = append(frontier, v)
				}
			}
			frontier = frontier[1:]
		}
		members := make([]int, 0, len(region))
		for id := range region {
			members = append(members, id)
		}
		sortInts(members)
		out = append(out, members)
	}
	return out
}

// TestDeriverMatchesDerive pins the scratch-buffer Deriver against the
// allocating Derive API over the model zoo: identical schemes node by node
// (Derive itself wraps a fresh Deriver, so this additionally checks that
// scratch reuse across subgraphs leaks no state from one derivation into the
// next) and identical footprints through the no-materialization path.
func TestDeriverMatchesDerive(t *testing.T) {
	cfg := DefaultConfig()
	for _, model := range models.Names() {
		g := models.MustBuild(model)
		d, err := NewDeriver(g, cfg)
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(int64(len(model))))
		for _, members := range randomSubgraphs(g, rng, 24) {
			want, wantErr := Derive(g, members, cfg)
			got, gotErr := d.Derive(members)
			if (wantErr == nil) != (gotErr == nil) {
				t.Fatalf("%s %v: error mismatch: %v vs %v", model, members, wantErr, gotErr)
			}
			if wantErr != nil {
				continue
			}
			if len(got.Nodes) != len(want.Nodes) {
				t.Fatalf("%s %v: %d nodes vs %d", model, members, len(got.Nodes), len(want.Nodes))
			}
			for id, w := range want.Nodes {
				gn, ok := got.Nodes[id]
				if !ok || *gn != *w {
					t.Fatalf("%s %v node %d: %+v vs %+v", model, members, id, gn, w)
				}
			}
			if len(got.Order) != len(want.Order) {
				t.Fatalf("%s %v: order %v vs %v", model, members, got.Order, want.Order)
			}
			for i := range want.Order {
				if got.Order[i] != want.Order[i] {
					t.Fatalf("%s %v: order %v vs %v", model, members, got.Order, want.Order)
				}
			}
			fp, err := d.TotalFootprint(members)
			if err != nil {
				t.Fatal(err)
			}
			if wantFP := want.TotalFootprintBytes(); fp != wantFP {
				t.Fatalf("%s %v: TotalFootprint %d != %d", model, members, fp, wantFP)
			}
		}
	}
}

// TestDeriverAllocFree pins the scratch-buffer contract: once warm, a
// Deriver's TotalFootprint path performs zero allocations per derivation.
func TestDeriverAllocFree(t *testing.T) {
	g := models.MustBuild("googlenet")
	d, err := NewDeriver(g, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	subs := randomSubgraphs(g, rand.New(rand.NewSource(7)), 16)
	for _, m := range subs { // warm the scratch (adj growth, queue caps)
		if _, err := d.TotalFootprint(m); err != nil {
			t.Fatal(err)
		}
	}
	i := 0
	allocs := testing.AllocsPerRun(200, func() {
		if _, err := d.TotalFootprint(subs[i%len(subs)]); err != nil {
			t.Fatal(err)
		}
		i++
	})
	if allocs != 0 {
		t.Errorf("warm Deriver.TotalFootprint allocates %.1f per derivation, want 0", allocs)
	}
}

// TestDeriverErrors mirrors the Derive error contract through the scratch
// API, then checks the Deriver stays usable after a failed derivation.
func TestDeriverErrors(t *testing.T) {
	g := models.MustBuild("resnet50")
	if _, err := NewDeriver(g, Config{}); err == nil {
		t.Error("invalid config accepted")
	}
	d, err := NewDeriver(g, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.TotalFootprint(nil); err == nil {
		t.Error("empty subgraph accepted")
	}
	members := []int{g.ComputeIDs()[0]}
	want, _ := Derive(g, members, DefaultConfig())
	got, err := d.Derive(members)
	if err != nil {
		t.Fatal(err)
	}
	if want.TotalFootprintBytes() != got.TotalFootprintBytes() {
		t.Error("deriver unusable after error")
	}
}
