package eval_test

// The cross-engine equivalence suite of the delta-evaluation layer: for
// every model in the zoo × both metrics × both buffer kinds, a randomized
// sequence of partition operators (TryModifyNode / TrySplit / TryMerge via
// core.ApplyRandomMutation, plus in-situ split repair) must make
// Evaluator.PartitionDelta agree bit-for-bit with a from-scratch
// Evaluator.Partition — cost sums, feasibility set, and footprints alike.
// PartitionDelta's only correctness risk is a stale or mis-carried cost
// handle, which the from-scratch path cannot share, so exact equality here
// pins the dirty-marking rules of the partition operators.

import (
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"cocco/internal/core"
	"cocco/internal/eval"
	"cocco/internal/hw"
	"cocco/internal/models"
	"cocco/internal/partition"
	"cocco/internal/tiling"
)

// memFor returns a moderately tight memory configuration per buffer kind, so
// the sequences exercise both feasible and infeasible subgraphs.
func memFor(kind hw.BufferKind) hw.MemConfig {
	if kind == hw.SharedBuffer {
		return hw.MemConfig{Kind: hw.SharedBuffer, GlobalBytes: 1536 * hw.KiB}
	}
	return hw.MemConfig{Kind: hw.SeparateBuffer, GlobalBytes: 512 * hw.KiB, WeightBytes: 576 * hw.KiB}
}

// requireEqualResults fails unless the two results are exactly equal —
// including bit-equality of the float64 aggregates, which both evaluation
// paths must accumulate in the same order.
func requireEqualResults(t *testing.T, step int, got, want *eval.Result) {
	t.Helper()
	if got.EMABytes != want.EMABytes ||
		got.EnergyPJ != want.EnergyPJ ||
		got.LatencyCycles != want.LatencyCycles ||
		got.AvgBWBytesPerSec != want.AvgBWBytesPerSec ||
		got.MaxActFootprint != want.MaxActFootprint ||
		got.MaxWgtFootprint != want.MaxWgtFootprint ||
		got.NumSubgraphs != want.NumSubgraphs ||
		!reflect.DeepEqual(got.Infeasible, want.Infeasible) {
		t.Fatalf("step %d: delta result diverges from full recompute\n delta: %+v\n  full: %+v", step, got, want)
	}
}

// TestDeltaEquivalenceZoo is the model-zoo equivalence matrix.
func TestDeltaEquivalenceZoo(t *testing.T) {
	const steps = 12
	for _, model := range models.Names() {
		g := models.MustBuild(model)
		ev := eval.MustNew(g, hw.DefaultPlatform(), tiling.DefaultConfig())
		for _, kind := range []hw.BufferKind{hw.SeparateBuffer, hw.SharedBuffer} {
			for _, metric := range []eval.Metric{eval.MetricEMA, eval.MetricEnergy} {
				name := model + "/" + kind.String() + "/" + metric.String()
				t.Run(name, func(t *testing.T) {
					mem := memFor(kind)
					rng := rand.New(rand.NewSource(int64(len(name))*1009 + 7))
					p := core.RandomPartition(g, rng, 0.3)
					for step := 0; step <= steps; step++ {
						if step > 0 {
							p = core.ApplyRandomMutation(g, rng, p)
						}
						got := ev.PartitionDelta(p, mem)
						want := ev.Partition(p, mem)
						requireEqualResults(t, step, got, want)
						if got.MetricValue(metric) != want.MetricValue(metric) {
							t.Fatalf("step %d: metric %v differs: %g vs %g",
								step, metric, got.MetricValue(metric), want.MetricValue(metric))
						}
					}
					// The in-situ split repair drives PartitionDelta through
					// split-heavy carry chains; its final state must agree
					// with a from-scratch evaluation too.
					q, res := core.RepairInSitu(ev, rng, p, mem)
					requireEqualResults(t, -1, res, ev.Partition(q, mem))
				})
			}
		}
	}
}

// TestDeltaFallbackFreshPartition checks the full-recompute fallback: a
// partition with no carried handles (fresh or deserialized) evaluates
// identically through both engines and fills its handles for later reuse.
func TestDeltaFallbackFreshPartition(t *testing.T) {
	g := models.MustBuild("googlenet")
	ev := eval.MustNew(g, hw.DefaultPlatform(), tiling.DefaultConfig())
	mem := memFor(hw.SeparateBuffer)
	p := partition.Singletons(g)
	requireEqualResults(t, 0, ev.PartitionDelta(p, mem), ev.Partition(p, mem))
	reused := ev.DeltaStats()
	// A second delta evaluation of the same partition must come entirely
	// from carried handles.
	requireEqualResults(t, 1, ev.PartitionDelta(p, mem), ev.Partition(p, mem))
	if got := ev.DeltaStats() - reused; got != int64(p.NumSubgraphs()) {
		t.Errorf("second PartitionDelta reused %d handles, want %d", got, p.NumSubgraphs())
	}
}

// TestDeltaCrossEvaluator pins the handle-ownership rule: raw subgraph
// costs depend on the platform and tiling config, so a partition whose
// handles were filled by one evaluator (e.g. an Options.Init seed from a
// search on different hardware) must have them treated as dirty by another
// evaluator, not silently reused.
func TestDeltaCrossEvaluator(t *testing.T) {
	g := models.MustBuild("googlenet")
	mem := memFor(hw.SeparateBuffer)
	rng := rand.New(rand.NewSource(5))
	p := core.RandomPartition(g, rng, 0.3)

	evA := eval.MustNew(g, hw.DefaultPlatform(), tiling.DefaultConfig())
	evA.PartitionDelta(p, mem) // fill handles owned by evA

	// A platform with half the PE array: compute cycles (and so latency)
	// differ, while member sets are identical.
	platB := hw.DefaultPlatform()
	platB.Core.PERows = 2
	evB := eval.MustNew(g, platB, tiling.DefaultConfig())
	got := evB.PartitionDelta(p, mem)
	requireEqualResults(t, 0, got, evB.Partition(p, mem))
	if ref := evA.Partition(p, mem); got.LatencyCycles == ref.LatencyCycles {
		t.Fatalf("platforms indistinguishable (latency %d); the test lost its teeth", ref.LatencyCycles)
	}
	// And going back to evA must re-own the handles evB overwrote.
	requireEqualResults(t, 1, evA.PartitionDelta(p, mem), evA.Partition(p, mem))
}

// TestDeltaAllocsFlat pins the interning fix: once a partition's handles are
// filled, PartitionDelta costs a small constant number of allocations (the
// Result and its scratch slices) — it no longer builds a member-key string
// per subgraph per lookup, so allocations do not scale with re-evaluations.
func TestDeltaAllocsFlat(t *testing.T) {
	g := models.MustBuild("resnet50")
	ev := eval.MustNew(g, hw.DefaultPlatform(), tiling.DefaultConfig())
	mem := memFor(hw.SeparateBuffer)
	p := partition.Singletons(g)
	ev.PartitionDelta(p, mem) // fill handles
	allocs := testing.AllocsPerRun(100, func() { ev.PartitionDelta(p, mem) })
	if allocs > 8 {
		t.Errorf("clean PartitionDelta allocates %.1f per eval, want <= 8", allocs)
	}
	// The full path rebuilds a key (plus a sorted member copy) per subgraph,
	// so it must allocate more than the handle path on the same partition —
	// the gap is what BenchmarkDeltaEval quantifies.
	full := testing.AllocsPerRun(100, func() { ev.Partition(p, mem) })
	if full <= allocs {
		t.Errorf("full Partition allocates %.1f, delta %.1f; expected the delta path to allocate less", full, allocs)
	}
}

// TestDeltaPrefetchEquivalence runs the matrix's separate-buffer sequence
// with the §5.1.2 weight-prefetch feasibility check enabled, which adds the
// cross-subgraph double-buffering pass to the aggregation.
func TestDeltaPrefetchEquivalence(t *testing.T) {
	g := models.MustBuild("resnet50")
	ev := eval.MustNew(g, hw.DefaultPlatform(), tiling.DefaultConfig())
	ev.EnablePrefetchCheck()
	mem := memFor(hw.SeparateBuffer)
	rng := rand.New(rand.NewSource(99))
	p := core.RandomPartition(g, rng, 0.3)
	for step := 0; step <= 16; step++ {
		if step > 0 {
			p = core.ApplyRandomMutation(g, rng, p)
		}
		requireEqualResults(t, step, ev.PartitionDelta(p, mem), ev.Partition(p, mem))
	}
}

// TestPrefetchInfeasibleMatchesPairRule checks the prefetch check's exact
// Infeasible list on random resnet50 partitions at a tight weight buffer
// against a reference built from Contribution: subgraph s fails when it
// does not fit alone, or when it and s+1 are both multi-layer and their
// per-core weights overflow the buffer together.
func TestPrefetchInfeasibleMatchesPairRule(t *testing.T) {
	g := models.MustBuild("resnet50")
	ev := eval.MustNew(g, hw.DefaultPlatform(), tiling.DefaultConfig())
	ev.EnablePrefetchCheck()
	mem := hw.MemConfig{Kind: hw.SeparateBuffer, GlobalBytes: 1024 * hw.KiB, WeightBytes: 512 * hw.KiB}
	pairOnly := 0
	for seed := int64(0); seed < 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		p := core.RandomPartition(g, rng, 0.1+0.02*float64(seed%10))
		n := p.NumSubgraphs()
		ctrs := make([]eval.Contribution, n)
		multi := make([]bool, n)
		for s := range n {
			c := ev.Subgraph(p.Members(s))
			ctrs[s], multi[s] = ev.Contribution(c, mem), len(c.Members) > 1
		}
		var want []int
		for s := range n {
			pair := s+1 < n && multi[s] && multi[s+1] && ctrs[s].WgtPerCore+ctrs[s+1].WgtPerCore > mem.WeightBytes
			if !ctrs[s].Fits || pair {
				want = append(want, s)
			}
			if ctrs[s].Fits && pair {
				pairOnly++
			}
		}
		if got := ev.Partition(p, mem).Infeasible; !slices.Equal(got, want) {
			t.Fatalf("seed %d: Infeasible = %v, want %v", seed, got, want)
		}
	}
	if pairOnly == 0 {
		t.Fatal("no subgraph failed by the pair rule alone; tighten the buffer")
	}
}
