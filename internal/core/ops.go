package core

import (
	"fmt"
	"math/rand"

	"cocco/internal/eval"
	"cocco/internal/graph"
	"cocco/internal/hw"
	"cocco/internal/partition"
)

// RandomPartition draws a valid random partition (§4.4.1's random
// initialization): layers are visited in topological order and each either
// starts a new subgraph (probability pNew) or joins the subgraph of one of
// its latest-scheduled producers — a choice that always preserves precedence
// and connectivity.
func RandomPartition(g *graph.Graph, rng *rand.Rand, pNew float64) *partition.Partition {
	sc := getOpScratch(g.Len(), 1)
	defer putOpScratch(sc)
	assign := sc.assign[:0]
	for i := 0; i < g.Len(); i++ {
		assign = append(assign, partition.Unassigned)
	}
	sc.assign = assign
	next := 0
	for _, v := range g.ComputeIDs() {
		// Producers already assigned (inputs stay Unassigned).
		maxP := -1
		for _, u := range g.PredIDs(v) {
			if assign[u] > maxP {
				maxP = assign[u]
			}
		}
		if maxP < 0 || rng.Float64() < pNew {
			assign[v] = next
			next++
			continue
		}
		// Join the producers' subgraph with the maximal id: this keeps the
		// quotient edges pointing forward (acyclic) and attaches v to a
		// member, preserving connectivity. The historical code drew uniformly
		// over the deduplicated producer subgraphs equal to maxP — always the
		// singleton {maxP} — so the draw is kept (Intn(1) consumes one RNG
		// value) to leave every seeded search trajectory unchanged.
		rng.Intn(1)
		assign[v] = maxP
	}
	p, err := partition.From(g, assign)
	if err != nil {
		// By construction this cannot happen; fall back to singletons to
		// keep the optimizer running rather than crash mid-search.
		return partition.Singletons(g)
	}
	return p
}

// MutationOp identifies one of the three customized partition mutations
// (Figure 9c–e).
type MutationOp int

const (
	// OpModifyNode moves a random node to a neighbor's or a fresh subgraph.
	OpModifyNode MutationOp = iota
	// OpSplitSubgraph splits a random multi-node subgraph in two.
	OpSplitSubgraph
	// OpMergeSubgraphs merges a random subgraph with a quotient neighbor.
	OpMergeSubgraphs
)

// ApplyMutationOp applies one specific partition mutation. Exported so the
// search-path benchmarks (and any caller wanting a fixed operator mix) can
// drive the same operators ApplyRandomMutation samples from. Unknown ops
// panic rather than silently running some mutation.
func ApplyMutationOp(g *graph.Graph, rng *rand.Rand, p *partition.Partition, op MutationOp) *partition.Partition {
	switch op {
	case OpModifyNode:
		return mutateModifyNode(g, rng, p)
	case OpSplitSubgraph:
		return mutateSplit(g, rng, p)
	case OpMergeSubgraphs:
		return mutateMerge(g, rng, p)
	default:
		panic(fmt.Sprintf("core: unknown MutationOp %d", op))
	}
}

// ApplyRandomMutation applies one uniformly chosen partition mutation
// (modify-node, split-subgraph, or merge-subgraph). Exported so the
// simulated-annealing baseline can use Cocco's operators, as the paper does
// ("SA is an alternative optimization method for our framework with
// compatible operators").
func ApplyRandomMutation(g *graph.Graph, rng *rand.Rand, p *partition.Partition) *partition.Partition {
	switch rng.Intn(3) {
	case 0:
		return mutateModifyNode(g, rng, p)
	case 1:
		return mutateSplit(g, rng, p)
	default:
		return mutateMerge(g, rng, p)
	}
}

// RepairInSitu applies the in-situ split repair of §4.4.4 outside the GA:
// infeasible subgraphs are split until everything fits or no split applies.
// Returns the repaired partition and its evaluation. p is only read: each
// split yields a new partition, so a shared p may be repaired from many
// goroutines at once.
func RepairInSitu(ev *eval.Evaluator, rng *rand.Rand, p *partition.Partition, mem hw.MemConfig) (*partition.Partition, *eval.Result) {
	res := ev.Partition(p, mem)
	for iter := 0; iter < 64 && !res.Feasible(); iter++ {
		split := false
		for _, s := range res.Infeasible {
			if memberCount(p, s) < 2 {
				continue
			}
			if q, err := splitRandom(ev.Graph(), rng, p, s); err == nil && q != p {
				p = q
				split = true
				break
			}
		}
		if !split {
			break
		}
		res = ev.Partition(p, mem)
	}
	return p, res
}

// memberCount counts the members of subgraph s without materializing them.
func memberCount(p *partition.Partition, s int) int {
	n := 0
	for _, id := range p.Graph().ComputeIDs() {
		if p.Of(id) == s {
			n++
		}
	}
	return n
}

// crossoverPartition implements the paper's customized crossover
// (§4.4.2, Figure 9b): layers are assigned in topological order; each
// undecided layer picks one parent genome at random and reproduces that
// parent's subgraph containing it. If the reproduced subgraph overlaps
// already-decided layers, we either split out a new subgraph excluding them
// (Child-1) or merge into one of the decided layers' subgraphs (Child-2),
// chosen at random. Falls back to a clone of dad if the blended assignment
// is unschedulable.
func crossoverPartition(g *graph.Graph, rng *rand.Rand, dad, mom *partition.Partition) *partition.Partition {
	sc := getOpScratch(g.Len(), 1)
	defer putOpScratch(sc)
	assign := sc.assign[:0]
	for i := 0; i < g.Len(); i++ {
		assign = append(assign, partition.Unassigned)
	}
	sc.assign = assign
	decided := sc.nodes
	decided.Reset()
	next := 0

	for _, v := range g.ComputeIDs() {
		if decided.Has(v) {
			continue
		}
		src := dad
		if rng.Intn(2) == 1 {
			src = mom
		}
		members := src.AppendMembers(sc.members[:0], src.Of(v))
		sc.members = members
		undecided, overlap := sc.listA[:0], sc.listB[:0]
		for _, m := range members {
			if decided.Has(m) {
				overlap = append(overlap, m)
			} else {
				undecided = append(undecided, m)
			}
		}
		sc.listA, sc.listB = undecided, overlap
		var label int
		if len(overlap) > 0 && rng.Intn(2) == 1 {
			// Merge into the subgraph of a random decided member.
			label = assign[overlap[rng.Intn(len(overlap))]]
		} else {
			label = next
			next++
		}
		for _, m := range undecided {
			assign[m] = label
			decided.Set(m)
		}
	}
	p, err := partition.From(g, assign)
	if err != nil {
		return dad.Clone()
	}
	return p
}

// CrossoverPartition exposes the customized crossover for callers outside the
// GA loop (benchmarks, alternative optimizers pairing Cocco's operators).
func CrossoverPartition(g *graph.Graph, rng *rand.Rand, dad, mom *partition.Partition) *partition.Partition {
	return crossoverPartition(g, rng, dad, mom)
}

// crossoverMem averages the parents' capacities and rounds to the nearest
// candidate (§4.4.2: "each hardware configuration in the offspring is the
// average of its parents and then rounds to the nearest candidate value").
func crossoverMem(ms MemSearch, a, b hw.MemConfig) hw.MemConfig {
	if !ms.Search {
		return ms.Fixed
	}
	out := hw.MemConfig{Kind: ms.Kind}
	out.GlobalBytes = ms.Global.Clamp((a.GlobalBytes + b.GlobalBytes) / 2)
	if ms.Kind == hw.SeparateBuffer {
		out.WeightBytes = ms.Weight.Clamp((a.WeightBytes + b.WeightBytes) / 2)
	}
	return out
}

// mutateModifyNode moves a random node to the subgraph of one of its graph
// neighbors or to a fresh subgraph (Figure 9c). Returns the input partition
// unchanged if no valid move is found within a few attempts.
func mutateModifyNode(g *graph.Graph, rng *rand.Rand, p *partition.Partition) *partition.Partition {
	sc := getOpScratch(g.Len(), p.NumSubgraphs()+1)
	defer putOpScratch(sc)
	nodes := g.ComputeIDs()
	for attempt := 0; attempt < 4; attempt++ {
		u := nodes[rng.Intn(len(nodes))]
		// Candidate targets: subgraphs of u's neighbors, plus a new one.
		seen := sc.labels
		seen.Reset()
		seen.Set(p.Of(u))
		targets := sc.targets[:0]
		addTarget := func(n int) {
			s := p.Of(n)
			if s != partition.Unassigned && !seen.Has(s) {
				seen.Set(s)
				targets = append(targets, s)
			}
		}
		for _, n := range g.PredIDs(u) {
			addTarget(int(n))
		}
		for _, n := range g.SuccIDs(u) {
			addTarget(int(n))
		}
		targets = append(targets, p.NumSubgraphs()) // fresh subgraph
		sc.targets = targets
		t := targets[rng.Intn(len(targets))]
		if q, err := p.TryModifyNode(u, t); err == nil {
			return q
		}
	}
	return p
}

// mutateSplit splits a random multi-node subgraph into two parts along a
// random connected region (Figure 9d).
func mutateSplit(g *graph.Graph, rng *rand.Rand, p *partition.Partition) *partition.Partition {
	sc := getOpScratch(g.Len(), p.NumSubgraphs()+1)
	cands := multiNodeSubgraphs(p, sc)
	if len(cands) == 0 {
		putOpScratch(sc)
		return p
	}
	s := cands[rng.Intn(len(cands))]
	putOpScratch(sc)
	if q, err := splitRandom(g, rng, p, s); err == nil {
		return q
	}
	return p
}

// mutateMerge merges a random subgraph with a random quotient neighbor
// (Figure 9e); retries a few times since merges across a third subgraph's
// path are unschedulable.
func mutateMerge(g *graph.Graph, rng *rand.Rand, p *partition.Partition) *partition.Partition {
	if p.NumSubgraphs() < 2 {
		return p
	}
	sc := getOpScratch(g.Len(), p.NumSubgraphs()+1)
	defer putOpScratch(sc)
	for attempt := 0; attempt < 4; attempt++ {
		a := rng.Intn(p.NumSubgraphs())
		bs := quotientNeighbors(g, p, a, sc)
		if len(bs) == 0 {
			continue
		}
		b := bs[rng.Intn(len(bs))]
		if q, err := p.TryMerge(a, b); err == nil {
			return q
		}
	}
	return p
}

// MutateMemConfig applies the mutation-DSE operator (§4.4.3): resample the
// capacities around the current values with a normal distribution of
// DSESigmaSteps grid steps.
func MutateMemConfig(rng *rand.Rand, ms MemSearch, m hw.MemConfig) hw.MemConfig {
	if !ms.Search {
		return m
	}
	jitter := func(r hw.MemRange, v int64) int64 {
		nv := v + int64(rng.NormFloat64()*DSESigmaSteps*float64(r.Step))
		return r.Clamp(nv)
	}
	out := hw.MemConfig{Kind: ms.Kind, GlobalBytes: jitter(ms.Global, m.GlobalBytes)}
	if ms.Kind == hw.SeparateBuffer {
		out.WeightBytes = jitter(ms.Weight, m.WeightBytes)
	}
	return out
}

// splitRandom splits subgraph s of p into a random connected region and the
// remainder (the remainder's components are separated by the repair step).
func splitRandom(g *graph.Graph, rng *rand.Rand, p *partition.Partition, s int) (*partition.Partition, error) {
	sc := getOpScratch(g.Len(), 1)
	defer putOpScratch(sc)
	members := p.AppendMembers(sc.members[:0], s)
	sc.members = members
	if len(members) < 2 {
		return p, nil
	}
	inSub := sc.inSub
	inSub.Reset()
	for _, id := range members {
		inSub.Set(id)
	}
	// Grow a connected region of random target size from a random seed.
	target := 1 + rng.Intn(len(members)-1)
	seed := members[rng.Intn(len(members))]
	region := sc.nodes
	region.Reset()
	region.Set(seed)
	regionLen := 1
	frontier := append(sc.frontier[:0], seed)
	for regionLen < target && len(frontier) > 0 {
		i := rng.Intn(len(frontier))
		u := frontier[i]
		frontier[i] = frontier[len(frontier)-1]
		frontier = frontier[:len(frontier)-1]
		// Preds then succs, matching the historical combined-slice order so
		// seeded region growth is unchanged.
		for _, p := range g.PredIDs(u) {
			v := int(p)
			if inSub.Has(v) && !region.Has(v) {
				region.Set(v)
				regionLen++
				frontier = append(frontier, v)
				if regionLen >= target {
					break
				}
			}
		}
		for _, s := range g.SuccIDs(u) {
			v := int(s)
			if regionLen >= target {
				break
			}
			if inSub.Has(v) && !region.Has(v) {
				region.Set(v)
				regionLen++
				frontier = append(frontier, v)
			}
		}
	}
	sc.frontier = frontier
	partA, partB := sc.listA[:0], sc.listB[:0]
	for _, id := range members {
		if region.Has(id) {
			partA = append(partA, id)
		} else {
			partB = append(partB, id)
		}
	}
	sc.listA, sc.listB = partA, partB
	if len(partA) == 0 || len(partB) == 0 {
		return p, nil
	}
	sc.parts = append(sc.parts[:0], partA, partB)
	return p.TrySplit(s, sc.parts)
}

// multiNodeSubgraphs lists subgraph ids with at least two members, ascending,
// into sc.targets.
func multiNodeSubgraphs(p *partition.Partition, sc *opScratch) []int {
	counts := sc.counts
	if cap(counts) < p.NumSubgraphs() {
		counts = make([]int32, p.NumSubgraphs())
	}
	counts = counts[:p.NumSubgraphs()]
	for i := range counts {
		counts[i] = 0
	}
	for _, id := range p.Graph().ComputeIDs() {
		counts[p.Of(id)]++
	}
	sc.counts = counts
	out := sc.targets[:0]
	for s, c := range counts {
		if c >= 2 {
			out = append(out, s)
		}
	}
	sc.targets = out
	return out
}

// quotientNeighbors lists subgraphs connected to s by at least one graph
// edge, in ascending order, into sc.targets.
func quotientNeighbors(g *graph.Graph, p *partition.Partition, s int, sc *opScratch) []int {
	seen := sc.labels
	seen.Reset()
	members := p.AppendMembers(sc.members[:0], s)
	sc.members = members
	mark := func(v int) {
		t := p.Of(v)
		if t != partition.Unassigned && t != s {
			seen.Set(t)
		}
	}
	for _, u := range members {
		for _, v := range g.PredIDs(u) {
			mark(int(v))
		}
		for _, v := range g.SuccIDs(u) {
			mark(int(v))
		}
	}
	out := sc.targets[:0]
	for t := 0; t < p.NumSubgraphs(); t++ {
		if seen.Has(t) {
			out = append(out, t)
		}
	}
	sc.targets = out
	return out
}
