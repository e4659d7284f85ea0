package baselines

import (
	"errors"
	"math"
	"math/bits"
	"sort"

	"cocco/internal/eval"
	"cocco/internal/graph"
	"cocco/internal/hw"
	"cocco/internal/partition"
)

// ErrBudget is returned when the enumeration-based search exceeds its state
// budget — the paper's "cannot complete within a reasonable search time" for
// the large irregular models.
var ErrBudget = errors.New("baselines: enumeration budget exceeded")

// The exact search's budgets, as in the evaluation setup.
const (
	// maxDownsets caps the number of downsets (schedulable prefixes) of the
	// DAG. Narrow graphs (plain/residual/inception) have few; randomly
	// wired graphs explode and abort with ErrBudget.
	maxDownsets = 30_000
	// maxPairs caps the number of downset pairs examined as transitions.
	maxPairs = 30_000_000
)

// Enumerate implements the enumeration-based optimizer (§4.2.1, after
// Fused-CNN and Jangda et al.'s state-compression dynamic programming) as an
// exact dynamic program over the downset lattice of the DAG:
//
// Any valid partition is exactly a chain ∅ = D₀ ⊂ D₁ ⊂ … ⊂ Dₖ = V of
// downsets (schedulable prefixes) whose successive differences are the
// subgraphs. The DP therefore enumerates all downsets once and relaxes over
// every pair (D ⊂ D') whose difference is a connected, buffer-feasible
// subgraph. The number of downsets grows with the DAG's width, so the plain,
// residual, and inception networks complete quickly while randomly wired
// graphs exhaust the budget — matching the paper's observation.
//
// Returns the optimal partition under the metric, the number of
// candidate-subgraph evaluations, or ErrBudget.
func Enumerate(ev *eval.Evaluator, mem hw.MemConfig, metric eval.Metric) (*partition.Partition, int, error) {
	g := ev.Graph()
	nodes := g.ComputeNodes()
	n := len(nodes)
	idx := make(map[int]int, n)
	for i, id := range nodes {
		idx[id] = i
	}
	words := (n + 63) / 64

	// Compute-only predecessor/successor bit indices.
	preds := make([][]int, n)
	succs := make([][]int, n)
	for i, id := range nodes {
		for _, p := range g.PredIDs(id) {
			if g.Node(int(p)).Kind != graph.OpInput {
				preds[i] = append(preds[i], idx[int(p)])
			}
		}
		for _, s := range g.SuccIDs(id) {
			succs[i] = append(succs[i], idx[int(s)])
		}
	}

	// Enumerate all downsets by BFS over "add one ready node".
	type dset struct {
		bits []uint64
		pop  int
	}
	has := func(b []uint64, i int) bool { return b[i/64]&(1<<(i%64)) != 0 }
	key := func(b []uint64) string { return string(bitsKey(b)) }

	start := make([]uint64, words)
	all := []dset{{bits: start}}
	index := map[string]int{key(start): 0}
	for qi := 0; qi < len(all); qi++ {
		d := all[qi]
		for i := 0; i < n; i++ {
			if has(d.bits, i) {
				continue
			}
			ready := true
			for _, p := range preds[i] {
				if !has(d.bits, p) {
					ready = false
					break
				}
			}
			if !ready {
				continue
			}
			nb := make([]uint64, words)
			copy(nb, d.bits)
			nb[i/64] |= 1 << (i % 64)
			k := key(nb)
			if _, ok := index[k]; ok {
				continue
			}
			if len(all) >= maxDownsets {
				return nil, 0, ErrBudget
			}
			index[k] = len(all)
			all = append(all, dset{bits: nb, pop: d.pop + 1})
		}
	}

	// Sort by popcount descending for a bottom-up DP (cost of the full set
	// is 0; relax towards the empty set).
	order := make([]int, len(all))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return all[order[a]].pop > all[order[b]].pop })

	nodeWeights := make([]int64, n)
	for i, id := range nodes {
		nodeWeights[i] = g.Node(id).WeightBytes()
	}
	wgtCap := weightPrune(ev, mem)

	cost := make([]float64, len(all))
	choice := make([]int, len(all)) // next downset index on the optimal path
	for i := range cost {
		cost[i] = math.Inf(1)
		choice[i] = -1
	}
	fullIdx := -1
	for i, d := range all {
		if d.pop == n {
			fullIdx = i
		}
	}
	if fullIdx < 0 {
		return nil, 0, errors.New("baselines: full downset missing (graph bug)")
	}
	cost[fullIdx] = 0

	samples := 0
	pairs := 0
	diff := make([]uint64, words)
	conn := newConnectivity(g)
	var members []int
	// Relax: for each smaller downset D, look at all supersets D'.
	for _, di := range order { // descending popcount: supersets first
		d := all[di]
		if d.pop == n {
			continue
		}
		best := math.Inf(1)
		bestTo := -1
		for _, ei := range order {
			e := all[ei]
			if e.pop <= d.pop {
				break // order is descending; no more strict supersets
			}
			pairs++
			if pairs > maxPairs {
				return nil, 0, ErrBudget
			}
			if math.IsInf(cost[ei], 1) {
				continue
			}
			// D must be a subset of E.
			sub := true
			for w := 0; w < words; w++ {
				if d.bits[w]&^e.bits[w] != 0 {
					sub = false
					break
				}
				diff[w] = e.bits[w] &^ d.bits[w]
			}
			if !sub {
				continue
			}
			// Quick weight prune for multi-node differences.
			size := 0
			var wgt int64
			for w := 0; w < words; w++ {
				size += bits.OnesCount64(diff[w])
			}
			members = members[:0]
			for w := 0; w < words; w++ {
				m := diff[w]
				for m != 0 {
					i := w*64 + bits.TrailingZeros64(m)
					members = append(members, nodes[i])
					wgt += nodeWeights[i]
					m &= m - 1
				}
			}
			if size > 1 && wgt > wgtCap {
				continue
			}
			if size > 1 && !conn.connected(members) {
				continue
			}
			c := ev.Subgraph(members)
			samples++
			if !ev.Fits(c, mem) {
				continue
			}
			if v := ev.SubgraphMetric(c, mem, metric) + cost[ei]; v < best {
				best = v
				bestTo = ei
			}
		}
		cost[di] = best
		choice[di] = bestTo
	}

	emptyIdx := index[key(start)]
	if math.IsInf(cost[emptyIdx], 1) {
		return nil, samples, errors.New("baselines: no feasible partition (unexpected)")
	}

	// Reconstruct the subgraph chain.
	assign := make([]int, g.Len())
	for i := range assign {
		assign[i] = partition.Unassigned
	}
	cur := emptyIdx
	sub := 0
	for cur != fullIdx {
		next := choice[cur]
		if next < 0 {
			return nil, samples, errors.New("baselines: broken DP path")
		}
		for w := 0; w < words; w++ {
			m := all[next].bits[w] &^ all[cur].bits[w]
			for m != 0 {
				i := w*64 + bits.TrailingZeros64(m)
				assign[nodes[i]] = sub
				m &= m - 1
			}
		}
		sub++
		cur = next
	}
	p, err := partition.From(g, assign)
	if err != nil {
		return nil, samples, err
	}
	return p, samples, nil
}

func bitsKey(b []uint64) []byte {
	out := make([]byte, len(b)*8)
	for i, w := range b {
		for j := 0; j < 8; j++ {
			out[i*8+j] = byte(w >> (8 * j))
		}
	}
	return out
}
