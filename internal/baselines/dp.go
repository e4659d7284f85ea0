package baselines

import (
	"math"

	"cocco/internal/eval"
	"cocco/internal/graph"
	"cocco/internal/hw"
	"cocco/internal/partition"
)

// weightPrune is the most weight bytes a multi-layer subgraph may hold and
// still pass ev.Fits on mem: the weight (or shared) capacity times the
// platform's cores, because Fits checks one core's share ⌈W/cores⌉ and
// ⌈W/c⌉ <= cap exactly when W <= cap·c. Weights only grow as a subgraph
// grows, so a prune on this bound is monotone.
func weightPrune(ev *eval.Evaluator, mem hw.MemConfig) int64 {
	wgtCap := mem.WeightBytes
	if mem.Kind == hw.SharedBuffer {
		wgtCap = mem.GlobalBytes
	}
	return wgtCap * int64(ev.Platform().Cores)
}

// connectivity decides whether candidate subgraphs are weakly connected in
// g (§4.1.1's validity rule) with one reusable pair of Marks and one walk
// buffer, so Enumerate and DP decide each candidate without allocating.
type connectivity struct {
	g        *graph.Graph
	in, seen *graph.Marks
	comp     []int32
}

func newConnectivity(g *graph.Graph) *connectivity {
	return &connectivity{g: g, in: graph.NewMarks(g.Len()), seen: graph.NewMarks(g.Len())}
}

// connected reports whether the non-empty members form one component: a
// walk from the first member reaches all of them.
func (c *connectivity) connected(members []int) bool {
	c.in.Reset()
	for _, id := range members {
		c.in.Set(id)
	}
	c.seen.Reset()
	c.comp = c.g.AppendComponent(c.comp[:0], members[0], c.in, c.seen)
	return len(c.comp) == len(members)
}

// DP implements the Irregular-NN scheduler (§4.2.3): layers are arranged by
// depth (topological order) and a sequential dynamic program chooses cut
// points, so every subgraph consists of layers contiguous in that order —
// the constrained search space the paper criticizes. Ranges that are
// disconnected, unschedulable, or over capacity are skipped (singletons are
// always available, so the DP always completes).
//
// Returns the best partition found and the number of candidate-subgraph
// evaluations spent.
func DP(ev *eval.Evaluator, mem hw.MemConfig, metric eval.Metric) (*partition.Partition, int) {
	g := ev.Graph()
	order := g.ComputeNodes() // fixed topological (depth) order
	n := len(order)
	samples := 0

	const maxRange = 64 // ranges beyond any plausible buffer are pruned

	// cost[i] = best cost of scheduling order[0:i].
	cost := make([]float64, n+1)
	cut := make([]int, n+1) // cut[i] = j such that order[j:i] is the last subgraph
	wgtCap := weightPrune(ev, mem)
	conn := newConnectivity(g)
	for i := 1; i <= n; i++ {
		cost[i] = math.Inf(1)
		// Grow the final subgraph backwards from i; stop when its weights
		// alone exceed the capacity (weights grow monotonically with the
		// range, activations do not, so only weights are safe to prune on).
		var wgt int64
		for j := i - 1; j >= 0 && i-j <= maxRange; j-- {
			wgt += g.Node(order[j]).WeightBytes()
			if i-j > 1 && wgt > wgtCap {
				break
			}
			members := order[j:i]
			if len(members) > 1 && !conn.connected(members) {
				continue
			}
			c := ev.Subgraph(members)
			samples++
			if !ev.Fits(c, mem) {
				continue
			}
			if v := cost[j] + ev.SubgraphMetric(c, mem, metric); v < cost[i] {
				cost[i] = v
				cut[i] = j
			}
		}
	}

	// Reconstruct.
	assign := make([]int, g.Len())
	for i := range assign {
		assign[i] = partition.Unassigned
	}
	var cuts []int
	for i := n; i > 0; i = cut[i] {
		cuts = append(cuts, i)
	}
	sub := 0
	start := 0
	for k := len(cuts) - 1; k >= 0; k-- {
		for _, id := range order[start:cuts[k]] {
			assign[id] = sub
		}
		sub++
		start = cuts[k]
	}
	p, err := partition.From(g, assign)
	if err != nil {
		// Contiguous topological ranges always schedule; this is a safety
		// net, not an expected path.
		return partition.Singletons(g), samples
	}
	return p, samples
}
