package partition

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"cocco/internal/graph"
)

// chain builds in -> c1 -> c2 -> c3 -> c4.
func chain(t *testing.T) (*graph.Graph, []int) {
	t.Helper()
	b := graph.NewBuilder("chain")
	in := b.Input("in", 3, 32, 32)
	ids := []int{in}
	prev := in
	for _, name := range []string{"c1", "c2", "c3", "c4"} {
		prev = b.Conv(name, prev, 8, 3, 1)
		ids = append(ids, prev)
	}
	g, err := b.Finalize()
	if err != nil {
		t.Fatal(err)
	}
	return g, ids
}

// diamond builds in -> c1 -> {l, r} -> add -> c2.
func diamond(t *testing.T) (*graph.Graph, []int) {
	t.Helper()
	b := graph.NewBuilder("diamond")
	in := b.Input("in", 3, 32, 32)
	c1 := b.Conv("c1", in, 8, 3, 1)
	l := b.Conv("l", c1, 8, 3, 1)
	r := b.Conv("r", c1, 8, 1, 1)
	add := b.Eltwise("add", l, r)
	c2 := b.Conv("c2", add, 8, 3, 1)
	g, err := b.Finalize()
	if err != nil {
		t.Fatal(err)
	}
	return g, []int{in, c1, l, r, add, c2}
}

func TestSingletonsAndWhole(t *testing.T) {
	g, _ := diamond(t)
	s := Singletons(g)
	if s.NumSubgraphs() != 5 {
		t.Errorf("singletons = %d subgraphs", s.NumSubgraphs())
	}
	if err := s.Validate(); err != nil {
		t.Errorf("singletons invalid: %v", err)
	}
	w := Whole(g)
	if w.NumSubgraphs() != 1 {
		t.Errorf("whole = %d subgraphs", w.NumSubgraphs())
	}
	if err := w.Validate(); err != nil {
		t.Errorf("whole invalid: %v", err)
	}
}

func TestFromValidation(t *testing.T) {
	g, ids := diamond(t)
	in, c1, l, r, add, c2 := ids[0], ids[1], ids[2], ids[3], ids[4], ids[5]

	// Valid: {c1,l,r,add} together, c2 alone.
	assign := make([]int, g.Len())
	assign[in] = Unassigned
	assign[c1], assign[l], assign[r], assign[add] = 0, 0, 0, 0
	assign[c2] = 1
	p, err := From(g, assign)
	if err != nil {
		t.Fatalf("From: %v", err)
	}
	if p.NumSubgraphs() != 2 {
		t.Errorf("NumSubgraphs = %d", p.NumSubgraphs())
	}
	if got := p.Members(0); len(got) != 4 {
		t.Errorf("Members(0) = %v", got)
	}

	// Disconnected subgraph {l, r} must be rejected by From.
	assign2 := make([]int, g.Len())
	assign2[in] = Unassigned
	assign2[c1] = 0
	assign2[l], assign2[r] = 1, 1
	assign2[add], assign2[c2] = 2, 3
	if _, err := From(g, assign2); err == nil || !strings.Contains(err.Error(), "not connected") {
		t.Errorf("disconnected subgraph accepted: %v", err)
	}

	// A subgraph that is disconnected and also on a cycle of the label
	// quotient ({c1, add} both feeds and consumes {l, r}): the connectivity
	// refusal comes first.
	assign4 := make([]int, g.Len())
	assign4[in] = Unassigned
	assign4[c1], assign4[add] = 0, 0
	assign4[l], assign4[r] = 1, 1
	assign4[c2] = 2
	if _, err := From(g, assign4); err == nil || !strings.Contains(err.Error(), "not connected") {
		t.Errorf("disconnected cyclic labeling: %v, want a not-connected refusal", err)
	}

	// Assigned input node must be rejected.
	assign3 := append([]int(nil), assign...)
	assign3[in] = 0
	if _, err := From(g, assign3); err == nil {
		t.Error("assigned input accepted")
	}

	// Wrong length.
	if _, err := From(g, []int{0}); err == nil {
		t.Error("short assignment accepted")
	}
}

func TestNormalizeRenumbersScheduleOrder(t *testing.T) {
	g, ids := chain(t)
	c1, c2, c3, c4 := ids[1], ids[2], ids[3], ids[4]
	// Labels out of order: {c3,c4}=0, {c1,c2}=7 — normalization must flip.
	assign := make([]int, g.Len())
	assign[ids[0]] = Unassigned
	assign[c3], assign[c4] = 0, 0
	assign[c1], assign[c2] = 7, 7
	p, err := From(g, assign)
	if err != nil {
		t.Fatal(err)
	}
	if p.Of(c1) != 0 || p.Of(c3) != 1 {
		t.Errorf("normalization: P(c1)=%d P(c3)=%d", p.Of(c1), p.Of(c3))
	}
}

func TestTryMerge(t *testing.T) {
	g, ids := diamond(t)
	p := Singletons(g)

	// Merging adjacent subgraphs works.
	a, b := p.Of(ids[1]), p.Of(ids[2]) // c1, l
	q, err := p.TryMerge(a, b)
	if err != nil {
		t.Fatalf("merge: %v", err)
	}
	if q.NumSubgraphs() != 4 {
		t.Errorf("after merge: %d subgraphs", q.NumSubgraphs())
	}
	if err := q.Validate(); err != nil {
		t.Errorf("merged invalid: %v", err)
	}
	// The receiver must be untouched.
	if p.NumSubgraphs() != 5 {
		t.Error("TryMerge mutated receiver")
	}

	// A connected merge that wraps around a third subgraph must be rejected
	// as unschedulable: with {c1,l} and {add,c2} merged, subgraph {r} both
	// depends on and feeds the merged one.
	assign := make([]int, g.Len())
	assign[ids[0]] = Unassigned
	assign[ids[1]], assign[ids[2]] = 0, 0 // c1, l
	assign[ids[3]] = 1                    // r
	assign[ids[4]], assign[ids[5]] = 2, 2 // add, c2
	pw, err := From(g, assign)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := pw.TryMerge(0, 2); err == nil {
		t.Error("cyclic merge accepted")
	}
	// Self-merge and out-of-range.
	if _, err := p.TryMerge(1, 1); err == nil {
		t.Error("self-merge accepted")
	}
	if _, err := p.TryMerge(0, 99); err == nil {
		t.Error("out-of-range merge accepted")
	}
}

func TestTryMergeSiblingsRepairsConnectivity(t *testing.T) {
	g, ids := diamond(t)
	p := Singletons(g)
	// l and r are not adjacent; the merged subgraph is disconnected and the
	// repair must split it back apart, leaving a valid partition.
	q, err := p.TryMerge(p.Of(ids[2]), p.Of(ids[3]))
	if err != nil {
		t.Fatalf("sibling merge: %v", err)
	}
	if err := q.Validate(); err != nil {
		t.Errorf("repaired partition invalid: %v", err)
	}
	if q.Of(ids[2]) == q.Of(ids[3]) {
		t.Error("disconnected merge survived repair")
	}
}

func TestTryModifyNode(t *testing.T) {
	g, ids := chain(t)
	p := Singletons(g)
	c1, c2 := ids[1], ids[2]

	q, err := p.TryModifyNode(c2, p.Of(c1))
	if err != nil {
		t.Fatalf("modify: %v", err)
	}
	if q.Of(c1) != q.Of(c2) {
		t.Error("c2 not moved into c1's subgraph")
	}
	if err := q.Validate(); err != nil {
		t.Errorf("modified invalid: %v", err)
	}

	// Moving an input node fails.
	if _, err := p.TryModifyNode(ids[0], 0); err == nil {
		t.Error("moving input accepted")
	}
	// Fresh subgraph target works.
	q2, err := p.TryModifyNode(c2, p.NumSubgraphs())
	if err != nil {
		t.Fatalf("fresh target: %v", err)
	}
	if err := q2.Validate(); err != nil {
		t.Errorf("fresh-target result invalid: %v", err)
	}
}

func TestTrySplit(t *testing.T) {
	g, ids := chain(t)
	w := Whole(g)
	c1, c2, c3, c4 := ids[1], ids[2], ids[3], ids[4]

	q, err := w.TrySplit(0, [][]int{{c1, c2}, {c3, c4}})
	if err != nil {
		t.Fatalf("split: %v", err)
	}
	if q.NumSubgraphs() != 2 {
		t.Errorf("after split: %d", q.NumSubgraphs())
	}
	if q.Of(c1) != q.Of(c2) || q.Of(c3) != q.Of(c4) || q.Of(c1) == q.Of(c3) {
		t.Error("split landed wrong")
	}

	// Parts must cover the subgraph exactly.
	if _, err := w.TrySplit(0, [][]int{{c1}, {c3, c4}}); err == nil {
		t.Error("partial cover accepted")
	}
	if _, err := w.TrySplit(0, [][]int{{c1, c1}, {c2, c3, c4}}); err == nil {
		t.Error("duplicate node accepted")
	}
	if _, err := w.TrySplit(0, [][]int{{c1, 0}, {c2, c3, c4}}); err == nil {
		t.Error("foreign node accepted")
	}

	// Splitting a disconnected part is repaired into components.
	q2, err := w.TrySplit(0, [][]int{{c2}, {c1, c3, c4}})
	if err != nil {
		t.Fatalf("disconnected split: %v", err)
	}
	if err := q2.Validate(); err != nil {
		t.Errorf("repaired split invalid: %v", err)
	}
	if q2.NumSubgraphs() != 3 { // {c1}, {c2}, {c3,c4}
		t.Errorf("repaired split subgraphs = %d", q2.NumSubgraphs())
	}
}

// TestMutationsPreserveValidityProperty: random sequences of
// TryMerge/TrySplit/TryModifyNode keep the partition valid.
func TestMutationsPreserveValidityProperty(t *testing.T) {
	g, _ := diamond(t)
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		p := Singletons(g)
		for step := 0; step < 30; step++ {
			switch rng.Intn(3) {
			case 0:
				if p.NumSubgraphs() >= 2 {
					q, err := p.TryMerge(rng.Intn(p.NumSubgraphs()), rng.Intn(p.NumSubgraphs()))
					if err == nil {
						p = q
					}
				}
			case 1:
				nodes := g.ComputeNodes()
				u := nodes[rng.Intn(len(nodes))]
				q, err := p.TryModifyNode(u, rng.Intn(p.NumSubgraphs()+1))
				if err == nil {
					p = q
				}
			default:
				s := rng.Intn(p.NumSubgraphs())
				members := p.Members(s)
				if len(members) >= 2 {
					k := 1 + rng.Intn(len(members)-1)
					q, err := p.TrySplit(s, [][]int{members[:k], members[k:]})
					if err == nil {
						p = q
					}
				}
			}
			if err := p.Validate(); err != nil {
				t.Logf("seed %d step %d: %v", seed, step, err)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}
