package eval

import (
	"testing"

	"cocco/internal/hw"
	"cocco/internal/models"
	"cocco/internal/partition"
)

// TestPartitionEvalAllocs pins the aggregation core's allocation budget in
// isolation (costOf serves precomputed costs, so nothing below the
// aggregates can allocate): the only allocation is the Result itself, with
// prefetch off and on alike, because the prefetch check runs in the same
// single loop and carries one subgraph's verdict instead of per-subgraph
// slices.
func TestPartitionEvalAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector disables sync.Pool reuse; alloc pins are meaningless")
	}
	g := models.MustBuild("vgg16")
	ev := testEvaluator(t, g)
	ids := g.ComputeIDs()
	costs := make([]*SubgraphCost, len(ids))
	for i, id := range ids {
		costs[i] = ev.Subgraph([]int{id})
		if costs[i].Err != nil {
			t.Fatal(costs[i].Err)
		}
	}
	// Generous capacities: every subgraph fits, so no Infeasible appends.
	mem := hw.MemConfig{Kind: hw.SeparateBuffer, GlobalBytes: 64 * hw.MiB, WeightBytes: 64 * hw.MiB}
	costOf := func(si int) *SubgraphCost { return costs[si] }

	if allocs := testing.AllocsPerRun(100, func() {
		ev.partitionEval(len(costs), mem, costOf)
	}); allocs != 1 {
		t.Errorf("partitionEval (prefetch off) allocates %.1f per call, want 1 (the Result)", allocs)
	}

	ev.EnablePrefetchCheck()
	if allocs := testing.AllocsPerRun(100, func() {
		ev.partitionEval(len(costs), mem, costOf)
	}); allocs != 1 {
		t.Errorf("partitionEval (prefetch on) allocates %.1f per call, want 1 (the Result)", allocs)
	}
}

// TestWarmPartitionAllocs pins the evaluation path the search runs on every
// sample: once the cost cache holds a partition's subgraphs and the scratch
// pool is warm, Partition sorts the member runs in pooled scratch and looks
// each up without building anything, so the only allocation is the Result,
// with prefetch off and on alike. The partitions group runs of four
// consecutive compute nodes (split into components where a run is not
// connected), and every subgraph fits, so no Infeasible list is built.
func TestWarmPartitionAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector disables sync.Pool reuse; alloc pins are meaningless")
	}
	mem := hw.MemConfig{Kind: hw.SeparateBuffer, GlobalBytes: 64 * hw.MiB, WeightBytes: 64 * hw.MiB}
	for _, name := range []string{"resnet50", "googlenet"} {
		g := models.MustBuild(name)
		assign := make([]int, g.Len())
		for i := range assign {
			assign[i] = partition.Unassigned
		}
		for i, id := range g.ComputeIDs() {
			assign[id] = i / 4
		}
		p, err := partition.FromRepaired(g, assign)
		if err != nil {
			t.Fatal(err)
		}
		ev := testEvaluator(t, g)
		for _, prefetch := range []bool{false, true} {
			if prefetch {
				ev.EnablePrefetchCheck()
			}
			if res := ev.Partition(p, mem); !res.Feasible() {
				t.Fatalf("%s: subgraphs %v do not fit %v", name, res.Infeasible, mem)
			}
			if allocs := testing.AllocsPerRun(100, func() { ev.Partition(p, mem) }); allocs != 1 {
				t.Errorf("%s (prefetch %v): warm Partition allocates %.1f per call, want 1 (the Result)", name, prefetch, allocs)
			}
		}
	}
}
