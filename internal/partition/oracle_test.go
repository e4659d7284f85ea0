package partition

// The reference oracle for the dense mutation workspace: a verbatim copy of
// the retired map-based repair/normalize pipeline and the Clone-then-repair
// Try* operators built on it, plus a map-based Validate. The equivalence
// tests drive randomized operator sequences through both implementations and
// require bit-identical outcomes — assignment vector, subgraph count, and
// error/no-error agreement — so any behavioral drift in the Ops rewrite shows
// up as a readable diff against known-good code rather than as a silent
// search-trajectory change.

import (
	"math/rand"
	"sort"
	"testing"

	"cocco/internal/graph"
	"cocco/internal/testutil"
)

// oracleNormalize is the retired map-based normalize.
func oracleNormalize(p *Partition) error {
	oldIDs := map[int]int{}
	for _, a := range p.assign {
		if a >= 0 {
			if _, ok := oldIDs[a]; !ok {
				oldIDs[a] = len(oldIDs)
			}
		}
	}
	n := len(oldIDs)
	dense := make([]int, len(p.assign))
	for id, a := range p.assign {
		if a < 0 {
			dense[id] = Unassigned
		} else {
			dense[id] = oldIDs[a]
		}
	}
	adj := make([]map[int]bool, n)
	indeg := make([]int, n)
	for i := range adj {
		adj[i] = map[int]bool{}
	}
	for _, u := range p.g.ComputeIDs() {
		su := dense[u]
		for _, v := range p.g.SuccIDs(u) {
			sv := dense[v]
			if sv == Unassigned || sv == su {
				continue
			}
			if !adj[su][sv] {
				adj[su][sv] = true
				indeg[sv]++
			}
		}
	}
	minNode := make([]int, n)
	for i := range minNode {
		minNode[i] = int(^uint(0) >> 1)
	}
	for id, s := range dense {
		if s >= 0 && id < minNode[s] {
			minNode[s] = id
		}
	}
	ready := []int{}
	for s := 0; s < n; s++ {
		if indeg[s] == 0 {
			ready = append(ready, s)
		}
	}
	order := make([]int, 0, n)
	newID := make([]int, n)
	for len(ready) > 0 {
		best := 0
		for i := 1; i < len(ready); i++ {
			if minNode[ready[i]] < minNode[ready[best]] {
				best = i
			}
		}
		s := ready[best]
		ready = append(ready[:best], ready[best+1:]...)
		newID[s] = len(order)
		order = append(order, s)
		for t := range adj[s] {
			indeg[t]--
			if indeg[t] == 0 {
				ready = append(ready, t)
			}
		}
	}
	if len(order) != n {
		return errOracleCyclic
	}
	for id, s := range dense {
		if s == Unassigned {
			p.assign[id] = Unassigned
		} else {
			p.assign[id] = newID[s]
		}
	}
	p.count = n
	return nil
}

type oracleErr string

func (e oracleErr) Error() string { return string(e) }

const errOracleCyclic = oracleErr("partition: quotient graph is cyclic (unschedulable)")

// oracleComponents is the retired map-based Graph.ConnectedComponents: it
// splits the given node set into weakly connected components within g.
// Components are returned with ids ascending inside each component, ordered
// by their smallest id.
func oracleComponents(g *graph.Graph, set map[int]bool) [][]int {
	remaining := make(map[int]bool, len(set))
	for id := range set {
		remaining[id] = true
	}
	ids := make([]int, 0, len(set))
	for id := range set {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	var comps [][]int
	for _, start := range ids {
		if !remaining[start] {
			continue
		}
		comp := []int{}
		stack := []int{start}
		delete(remaining, start)
		for len(stack) > 0 {
			u := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			comp = append(comp, u)
			for _, run := range [2][]int32{g.SuccIDs(u), g.PredIDs(u)} {
				for _, w := range run {
					if v := int(w); remaining[v] {
						delete(remaining, v)
						stack = append(stack, v)
					}
				}
			}
		}
		sort.Ints(comp)
		comps = append(comps, comp)
	}
	return comps
}

// oracleRepair is the retired Members-scan repair.
func oracleRepair(p *Partition) (*Partition, error) {
	next := 0
	for _, a := range p.assign {
		if a >= next {
			next = a + 1
		}
	}
	for s := 0; s < next; s++ {
		members := p.Members(s)
		if len(members) <= 1 {
			continue
		}
		set := make(map[int]bool, len(members))
		for _, id := range members {
			set[id] = true
		}
		comps := oracleComponents(p.g, set)
		for i := 1; i < len(comps); i++ {
			for _, id := range comps[i] {
				p.assign[id] = next
			}
			next++
		}
	}
	p.count = next
	if err := oracleNormalize(p); err != nil {
		return nil, err
	}
	return p, nil
}

// oracleTryModifyNode / oracleTrySplit / oracleTryMerge are the retired
// Clone-then-repair operators.
func oracleTryModifyNode(p *Partition, u, target int) (*Partition, error) {
	if p.assign[u] == Unassigned {
		return nil, oracleErr("cannot move input")
	}
	if target < 0 || target > p.count {
		return nil, oracleErr("target out of range")
	}
	q := p.Clone()
	q.assign[u] = target
	if target == p.count {
		q.count++
	}
	q, err := oracleRepair(q)
	if err != nil {
		return nil, err
	}
	return q, nil
}

func oracleTrySplit(p *Partition, s int, parts [][]int) (*Partition, error) {
	members := p.Members(s)
	seen := map[int]bool{}
	total := 0
	for _, part := range parts {
		for _, id := range part {
			if p.assign[id] != s {
				return nil, oracleErr("node not in subgraph")
			}
			if seen[id] {
				return nil, oracleErr("node in multiple parts")
			}
			seen[id] = true
			total++
		}
	}
	if total != len(members) {
		return nil, oracleErr("parts do not cover")
	}
	q := p.Clone()
	for i, part := range parts {
		label := s
		if i > 0 {
			label = q.count
			q.count++
		}
		for _, id := range part {
			q.assign[id] = label
		}
	}
	q, err := oracleRepair(q)
	if err != nil {
		return nil, err
	}
	return q, nil
}

func oracleTryMerge(p *Partition, a, b int) (*Partition, error) {
	if a == b {
		return nil, oracleErr("self merge")
	}
	if a >= p.count || b >= p.count || a < 0 || b < 0 {
		return nil, oracleErr("out of range")
	}
	q := p.Clone()
	for id, s := range q.assign {
		if s == b {
			q.assign[id] = a
		}
	}
	q, err := oracleRepair(q)
	if err != nil {
		return nil, err
	}
	return q, nil
}

// oracleValidate is the map-based Validate: precedence on every edge between
// compute nodes, then every subgraph non-empty and one oracleComponents
// component, so it shares no code with the dense walk under test.
func oracleValidate(p *Partition) error {
	for _, u := range p.g.ComputeIDs() {
		for _, v := range p.g.SuccIDs(u) {
			if a := p.assign[int(v)]; a != Unassigned && p.assign[u] > a {
				return oracleErr("precedence violated")
			}
		}
	}
	for s := 0; s < p.count; s++ {
		set := map[int]bool{}
		for _, id := range p.Members(s) {
			set[id] = true
		}
		if len(set) == 0 {
			return oracleErr("empty subgraph")
		}
		if len(oracleComponents(p.g, set)) != 1 {
			return oracleErr("subgraph not connected")
		}
	}
	return nil
}

// requireSamePartition fails unless got and want agree on the assignment
// and the subgraph count.
func requireSamePartition(t *testing.T, step int, op string, got, want *Partition) {
	t.Helper()
	if got.count != want.count {
		t.Fatalf("step %d %s: count %d != oracle %d", step, op, got.count, want.count)
	}
	for id := range want.assign {
		if got.assign[id] != want.assign[id] {
			t.Fatalf("step %d %s: assign[%d] = %d != oracle %d",
				step, op, id, got.assign[id], want.assign[id])
		}
	}
}

// oracleGraphs returns the graphs seed drives the oracle suites over: a
// testutil.RandomGraph and a join-heavy testutil.RandomDAG of n compute
// nodes. The DAG's branches often meet only at a join, so a subgraph is
// connected there only through edges walked against their direction.
func oracleGraphs(seed int64, n int) []*graph.Graph {
	return []*graph.Graph{
		testutil.RandomGraph(seed, n),
		testutil.RandomDAG(seed, n, testutil.DAGOpts{PJoin: 0.6, MaxFanIn: 3}),
	}
}

// TestOpsMatchOracle drives randomized operator sequences over random DAGs
// through the dense workspace and the retired map-based oracle in lockstep.
func TestOpsMatchOracle(t *testing.T) {
	for seed := int64(0); seed < 24; seed++ {
		for _, g := range oracleGraphs(seed, 12+int(seed%3)*13) {
			opsMatchOracle(t, seed, g)
		}
	}
}

// opsMatchOracle runs one seeded 120-step operator sequence on g.
func opsMatchOracle(t *testing.T, seed int64, g *graph.Graph) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	p := Singletons(g)
	nodes := g.ComputeNodes()
	for step := 0; step < 120; step++ {
		var got, want *Partition
		var gotErr, wantErr error
		var op string
		switch rng.Intn(3) {
		case 0:
			op = "modify"
			u := nodes[rng.Intn(len(nodes))]
			target := rng.Intn(p.count + 1)
			got, gotErr = p.TryModifyNode(u, target)
			want, wantErr = oracleTryModifyNode(p, u, target)
		case 1:
			op = "split"
			s := rng.Intn(p.count)
			members := p.Members(s)
			if len(members) < 2 {
				continue
			}
			var a, b []int
			for _, id := range members {
				if rng.Intn(2) == 0 {
					a = append(a, id)
				} else {
					b = append(b, id)
				}
			}
			if len(a) == 0 || len(b) == 0 {
				continue
			}
			got, gotErr = p.TrySplit(s, [][]int{a, b})
			want, wantErr = oracleTrySplit(p, s, [][]int{a, b})
		default:
			op = "merge"
			if p.count < 2 {
				continue
			}
			a, b := rng.Intn(p.count), rng.Intn(p.count)
			if a == b {
				continue
			}
			got, gotErr = p.TryMerge(a, b)
			want, wantErr = oracleTryMerge(p, a, b)
		}
		if (gotErr == nil) != (wantErr == nil) {
			t.Fatalf("%s seed %d step %d %s: error disagreement: ops %v, oracle %v",
				g.Name, seed, step, op, gotErr, wantErr)
		}
		if gotErr != nil {
			continue
		}
		requireSamePartition(t, step, g.Name+" "+op, got, want)
		p = got
	}
}

// TestFromMatchesOracleNormalize pins the From pipeline (normalize from raw
// labels) against the oracle on random assignments, including rejected ones.
func TestFromMatchesOracleNormalize(t *testing.T) {
	for seed := int64(0); seed < 16; seed++ {
		for _, g := range oracleGraphs(seed, 20) {
			fromMatchesOracle(t, seed, g)
		}
	}
}

// fromMatchesOracle runs 40 seeded random labelings of g through From and
// through oracleNormalize plus oracleValidate.
func fromMatchesOracle(t *testing.T, seed int64, g *graph.Graph) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed + 100))
	// Random (often invalid) labelings over a small label alphabet, with
	// arbitrary gaps and order.
	assign := make([]int, g.Len())
	for trial := 0; trial < 40; trial++ {
		labels := 1 + rng.Intn(6)
		for _, n := range g.Nodes() {
			if n.Kind == graph.OpInput {
				assign[n.ID] = Unassigned
			} else {
				assign[n.ID] = rng.Intn(labels) * (1 + rng.Intn(3)) // gappy labels
			}
		}
		got, gotErr := From(g, assign)

		want := &Partition{g: g, assign: append([]int(nil), assign...)}
		wantErr := oracleNormalize(want)
		if wantErr == nil {
			wantErr = oracleValidate(want)
		}
		if (gotErr == nil) != (wantErr == nil) {
			t.Fatalf("%s seed %d trial %d: error disagreement: From %v, oracle %v",
				g.Name, seed, trial, gotErr, wantErr)
		}
		if gotErr != nil {
			continue
		}
		requireSamePartition(t, trial, g.Name+" from", got, want)
	}
}
