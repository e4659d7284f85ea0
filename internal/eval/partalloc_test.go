package eval

import (
	"testing"

	"cocco/internal/hw"
	"cocco/internal/models"
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
