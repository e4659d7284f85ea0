package tiling

import (
	"math/rand"
	"slices"
	"testing"

	"cocco/internal/graph"
	"cocco/internal/testutil"
)

// TestDeriveInvariantsOnRandomGraphs checks, on random DAGs and random
// connected subgraphs, the algebraic invariants the rest of the system
// relies on:
//
//   - Δ, x, upd are positive everywhere;
//   - the rate law upd(v)·Δ(v)·s(v) == upd(u)·Δ(u) holds on every internal
//     edge (stage-3's defining equation);
//   - the co-prime property: the upd values of one subgraph have GCD 1;
//   - the residency bound x(p) ≥ F_v + (Δ_v−1)·s_v on every internal edge.
func TestDeriveInvariantsOnRandomGraphs(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		g := testutil.RandomGraph(seed, 25)
		rng := rand.New(rand.NewSource(seed + 1000))
		for trial := 0; trial < 10; trial++ {
			members := testutil.RandomConnectedSubgraph(rng, g, 10)
			s, err := Derive(g, members, DefaultConfig())
			if err != nil {
				t.Fatalf("seed %d trial %d: %v", seed, trial, err)
			}
			inSet := map[int]bool{}
			for _, id := range members {
				inSet[id] = true
			}
			var updGCD int64
			for id, ns := range s.Nodes {
				if ns.DeltaH <= 0 || ns.TileH <= 0 || ns.UpdH <= 0 ||
					ns.DeltaW <= 0 || ns.TileW <= 0 || ns.UpdW <= 0 {
					t.Fatalf("seed %d: node %d non-positive scheme %+v", seed, id, ns)
				}
				// Note: x < Δ is legal when a consumer's stride exceeds its
				// kernel (some producer rows are never read), so no x ≥ Δ
				// assertion here.
				updGCD = gcd64(updGCD, ns.UpdH)
			}
			if updGCD != 1 {
				t.Errorf("seed %d trial %d: upd values share factor %d (not co-prime)", seed, trial, updGCD)
			}
			for _, v := range members {
				nv := g.Node(v)
				vs := s.Nodes[v]
				for _, u := range g.PredIDs(v) {
					us, ok := s.Nodes[int(u)]
					if !ok {
						continue
					}
					if vs.UpdH*vs.DeltaH*int64(nv.StrideH) != us.UpdH*us.DeltaH {
						t.Fatalf("seed %d: edge %d->%d violates the H rate law", seed, u, v)
					}
					if vs.UpdW*vs.DeltaW*int64(nv.StrideW) != us.UpdW*us.DeltaW {
						t.Fatalf("seed %d: edge %d->%d violates the W rate law", seed, u, v)
					}
					window := int64(nv.KernelH) + (vs.DeltaH-1)*int64(nv.StrideH)
					if us.TileH < window {
						t.Fatalf("seed %d: edge %d->%d: x=%d below batch window %d",
							seed, u, v, us.TileH, window)
					}
				}
			}
		}
	}
}

// TestFootprintMonotoneUnderGrowth validates the property the exact
// enumeration's pruning rests on (see internal/baselines): adding a member
// to a subgraph never decreases the total activation footprint.
func TestFootprintMonotoneUnderGrowth(t *testing.T) {
	for seed := int64(0); seed < 15; seed++ {
		g := testutil.RandomGraph(seed, 25)
		rng := rand.New(rand.NewSource(seed + 500))
		for trial := 0; trial < 8; trial++ {
			members := testutil.RandomConnectedSubgraph(rng, g, 8)
			s, err := Derive(g, members, DefaultConfig())
			if err != nil {
				continue
			}
			base := s.TotalFootprintBytes()
			inSet := map[int]bool{}
			for _, id := range members {
				inSet[id] = true
			}
			// Try every adjacent extension.
			for _, id := range members {
				for _, w := range append(slices.Clone(g.PredIDs(id)), g.SuccIDs(id)...) {
					nb := int(w)
					if inSet[nb] || g.Node(nb).Kind == graph.OpInput {
						continue
					}
					grown, err := Derive(g, append(append([]int(nil), members...), nb), DefaultConfig())
					if err != nil {
						continue
					}
					if got := grown.TotalFootprintBytes(); got < base {
						t.Fatalf("seed %d: footprint shrank %d -> %d when adding node %d to %v",
							seed, base, got, nb, members)
					}
				}
			}
		}
	}
}

// TestDeriveDeterministic: identical inputs yield identical schemes.
func TestDeriveDeterministic(t *testing.T) {
	g := testutil.RandomGraph(3, 30)
	rng := rand.New(rand.NewSource(42))
	members := testutil.RandomConnectedSubgraph(rng, g, 12)
	a, err := Derive(g, members, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	b, err := Derive(g, members, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	for id, na := range a.Nodes {
		nb := b.Nodes[id]
		if *na != *nb {
			t.Fatalf("node %d differs across runs: %+v vs %+v", id, na, nb)
		}
	}
}
